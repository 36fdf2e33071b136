"""Command-line front end.

Subcommands mirror the library pipeline: import an edge list into
compressed storage, permute or transpose it, diffuse counters (anf),
then summarize (stats), bound or pin down diameters, and inspect the
compression (gaps, export-edges).

Every command that writes files also writes a manifest next to its first
output: the resolved argument vector plus content hashes of the inputs.
run_manifest() replays one and, because seeds are explicit and run files
never embed timings, the replayed outputs are byte-identical. Manifests
are never overwritten; a colliding name gets a numeric suffix.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .codes import CODE_NAMES
from .distance import summarize
from .diameter import double_sweep, giant_component, ifub, run_length_lower_bound
from .engine import RunSet, run, run_exact, seed_sequence
from .graph import (
    Graph,
    apply_permutation,
    avg_degree,
    gap_histogram,
    info_lower_bound,
    load_edge_list,
    load_permutation,
    random_permutation,
    save_edge_list,
    transpose,
)
from .storage import VERSIONS, CodecConfig, encode
from .storage import load as load_compressed
from .storage import save as save_compressed

__all__ = ["main", "run_manifest"]

log = logging.getLogger("hbgraph.cli")


# ---- small helpers ----


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _dump_json(obj, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_safe(obj):
    """Map nonfinite floats to null so the files stay strict JSON."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _print_table(rows, header=None) -> None:
    """Aligned columns: first column left, the rest right."""
    table = [tuple(str(c) for c in r) for r in rows]
    if header:
        table.insert(0, tuple(header))
    if not table:
        return
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    for r in table:
        cells = [
            f"{c:<{widths[0]}}" if i == 0 else f"{c:>{widths[i]}}"
            for i, c in enumerate(r)
        ]
        print("  ".join(cells).rstrip())


def _fresh_manifest_path(first_output: str) -> str:
    base = first_output + ".manifest"
    path = base + ".json"
    k = 2
    while os.path.exists(path):
        path = f"{base}-{k}.json"
        k += 1
    return path


def _argv(ns) -> list:
    """The subcommand's command line at the values ns resolved.

    Walks the subcommand parser, so an option added there is recorded
    with no further code; hidden options and top-level ones (--threads,
    -q) are left out.
    """
    argv = [ns.command]
    for action in ns.parser._actions:
        value = getattr(ns, action.dest, None)
        if action.help == argparse.SUPPRESS or value is None or value is False:
            continue
        argv += action.option_strings[-1:]
        if action.nargs != 0:
            argv.append(value)
    return argv


def _write_manifest(ns, inputs: list, outputs: list) -> str:
    manifest = {
        "tool": "hbgraph",
        "version": __version__,
        "command": ns.command,
        "argv": [str(a) for a in _argv(ns)],
        "inputs": [{"path": p, "sha256": _sha256(p)} for p in inputs],
        "outputs": list(outputs),
    }
    path = _fresh_manifest_path(outputs[0])
    _dump_json(manifest, path)
    log.info("manifest written to %s", path)
    return path


def run_manifest(manifest_path: str, out_dir: str | None = None) -> dict:
    """Re-execute a recorded command; outputs land in out_dir when given.

    Input files are re-hashed first and a mismatch is an error, so a
    successful replay reproduces the original outputs byte for byte.
    Returns {original output path: replayed output path}.
    """
    with open(manifest_path, "r", encoding="ascii") as fh:
        manifest = json.load(fh)
    for item in manifest["inputs"]:
        if not os.path.exists(item["path"]):
            raise FileNotFoundError(f"manifest input missing: {item['path']}")
        digest = _sha256(item["path"])
        if digest != item["sha256"]:
            raise ValueError(
                f"manifest input changed since recording: {item['path']}"
            )
    argv = list(manifest["argv"])
    if out_dir is None:
        mapping = {o: o for o in manifest["outputs"]}
    else:
        os.makedirs(out_dir, exist_ok=True)
        mapping = {
            o: os.path.join(out_dir, os.path.basename(o))
            for o in manifest["outputs"]
        }
        argv = [mapping.get(tok, tok) for tok in argv]
    rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"replay of {manifest_path} exited with status {rc}")
    return mapping


def _load_graph(path: str) -> Graph:
    """Accept compressed storage or a plain edge list; sniff by magic.

    A .ids sidecar, when present next to compressed input, restores the
    original node ids.
    """
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head in VERSIONS:
        g = load_compressed(path).decode()
        sidecar = path + ".ids"
        if os.path.exists(sidecar):
            ids = np.loadtxt(sidecar, dtype=np.int64, ndmin=1)
            if ids.size != g.n:
                raise ValueError(
                    f"{sidecar} lists {ids.size} ids for {g.n} nodes"
                )
            g.original_ids = ids
        return g
    return load_edge_list(path)


def _save_ids(g: Graph, hbg_path: str) -> list:
    """Write the original-id sidecar; returns the paths written."""
    if g.original_ids is None:
        return []
    sidecar = hbg_path + ".ids"
    with open(sidecar, "w", encoding="ascii") as fh:
        fh.write("".join(f"{v}\n" for v in np.asarray(g.original_ids).tolist()))
    return [sidecar]


def _codec_args(sp: argparse.ArgumentParser) -> None:
    # unset, encode chooses an option by the bits it saves on the graph
    # being written, which for permute and transpose is not the input's
    sp.add_argument(
        "--window", type=int, default=None,
        help="how many previous lists a node may copy from (0 disables); "
             "unset: 7 or 0, whichever makes the smaller file",
    )
    sp.add_argument(
        "--min-interval", type=int, default=None,
        help="shortest consecutive run stored as an interval (0 disables); "
             "unset: 4 or 0, whichever makes the smaller file",
    )
    sp.add_argument(
        "--code", dest="residual_code", choices=CODE_NAMES,
        default=None, help="residual code (expgolomb: exp-Golomb); unset: the one of the "
                           "fewest bits",
    )
    sp.add_argument(
        "--zeta-k", type=int, default=None,
        help="parameter k of zeta and expgolomb (1 to 31); unset: the best of 1 to 7 for "
             "zeta, of 1 to 31 for expgolomb",
    )


_CODEC_FIELDS = ("window", "min_interval", "residual_code", "zeta_k")


def _encode_and_save(g: Graph, ns) -> list:
    """Encode, save, print the compression report; returns outputs.

    Codec options left unset in ns are chosen by encode for g. The
    values used go back into ns, so the manifest records them and its
    replay writes the same bytes.
    """
    enc = encode(g, CodecConfig(*(getattr(ns, field) for field in _CODEC_FIELDS)))
    for field in _CODEC_FIELDS:
        setattr(ns, field, getattr(enc.cfg, field))
    out = ns.output
    save_compressed(enc, out)
    outputs = [out] + _save_ids(g, out)

    def per_arc(bits):
        return bits / g.num_arcs if g.num_arcs else 0.0

    loops = int(np.count_nonzero(g.indices == np.repeat(np.arange(g.n), g.out_degrees())))
    floor = info_lower_bound(g.n, g.num_arcs, g.symmetric, loops)

    _print_table(
        [
            ("nodes", g.n),
            ("arcs", g.num_arcs),
            ("symmetric", "yes" if g.symmetric else "no"),
            ("avg out-degree", f"{avg_degree(g):.3f}"),
            ("stream bytes", len(enc.stream)),
            ("bits per arc", f"{enc.bits_per_arc:.3f}"),
            ("file bits per arc", f"{per_arc(8 * os.path.getsize(out)):.3f}"),
            ("copied arcs %", f"{100 * enc.copy_fraction:.2f}"),
            ("interval arcs %", f"{100 * enc.interval_fraction:.2f}"),
            ("size floor bits/arc", f"{per_arc(floor):.3f}"),
        ]
    )
    return outputs


# ---- commands ----


def cmd_import(ns) -> int:
    g = load_edge_list(
        ns.edges, symmetrize=ns.symmetrize, allow_self_loops=ns.allow_self_loops
    )
    outputs = _encode_and_save(g, ns)
    _write_manifest(ns, [ns.edges], outputs)
    return 0


def cmd_permute(ns) -> int:
    g = _load_graph(ns.graph)
    if (ns.perm is None) == (not ns.random):
        raise ValueError("pass exactly one of --perm FILE or --random")
    if ns.perm is not None:
        perm = load_permutation(ns.perm, g.n)
    else:
        perm = random_permutation(g.n, ns.seed)
    g2 = apply_permutation(g, perm)
    outputs = _encode_and_save(g2, ns)
    inputs = [ns.graph] if ns.perm is None else [ns.graph, ns.perm]
    _write_manifest(ns, inputs, outputs)
    return 0


def cmd_transpose(ns) -> int:
    outputs = _encode_and_save(transpose(_load_graph(ns.graph)), ns)
    _write_manifest(ns, [ns.graph], outputs)
    return 0


def cmd_anf(ns) -> int:
    g = _load_graph(ns.graph)
    gid = g.fingerprint()
    if ns.exact:
        if ns.runs not in (None, 1):
            raise ValueError("--exact computes one deterministic run; drop --runs")
        runs = [run_exact(g, max_iters=ns.max_iters, budget_bytes=ns.budget_bytes,
                          graph_id=gid)]
    else:
        if ns.runs is None:
            ns.runs = 10
        if ns.runs < 1:
            raise ValueError("--runs must be >= 1")
        runs = [
            run(g, m=ns.registers, seed=s, max_iters=ns.max_iters,
                budget_bytes=ns.budget_bytes, graph_id=gid)
            for s in seed_sequence(ns.seed, ns.runs)
        ]
    rs = RunSet(runs)
    rs.save(ns.output)
    rows = [
        (i, r.m or "exact", r.seed, r.iterations,
         f"{r.values[-1]:.1f}", "yes" if r.truncated else "no")
        for i, r in enumerate(rs.runs)
    ]
    _print_table(rows, header=("run", "registers", "seed", "iterations",
                               "N(T)", "truncated"))
    _write_manifest(ns, [ns.graph], [ns.output])
    return 0


def cmd_stats(ns) -> int:
    include_self = not ns.exclude_self_pairs
    stats = summarize(RunSet.load(ns.runs_file), include_self_pairs=include_self,
                      q=ns.quantile)
    print(stats.to_text())
    fields = stats.to_dict()
    outputs = []
    if ns.output:
        payload = dict(fields, include_self_pairs=include_self, quantile=ns.quantile)
        _dump_json(_json_safe(payload), ns.output)
        outputs.append(ns.output)
    if ns.tsv:
        with open(ns.tsv, "w", encoding="ascii") as fh:
            fh.write("statistic\tvalue\n")
            for k in sorted(fields):
                v = fields[k]
                cell = "n/a" if isinstance(v, float) and not np.isfinite(v) else repr(v)
                fh.write(f"{k}\t{cell}\n")
        outputs.append(ns.tsv)
    if outputs:
        _write_manifest(ns, [ns.runs_file], outputs)
    return 0


def cmd_diameter(ns) -> int:
    g = _load_graph(ns.graph)
    start, ids = ns.start, np.arange(g.n)
    if ns.giant:
        # without ids attached, the giant's original_ids are the loaded
        # graph's ids, in which --start and the reported nodes stay
        bare = Graph(g.n, g.indptr, g.indices)
        g = giant_component(bare)
        ids = g.original_ids
        if start is not None:
            start = int(np.searchsorted(ids, start))
            if start == ids.size or ids[start] != ns.start:
                raise ValueError(f"start node {ns.start} is not in the giant component")
    t0 = time.perf_counter()
    if ns.sweep_only:
        ds = double_sweep(g, start=start)
        y, z, mid = (int(ids[v]) for v in (ds.y, ds.z, ds.midpoint))
        payload = {
            "lower": ds.lower,
            "upper": None,
            "exact": False,
            "bfs_count": ds.bfs_count,
            "component_size": None,
            "far_pair": [y, z],
            "midpoint": mid,
            "midpoint_ecc": ds.midpoint_ecc,
        }
        rows = [
            ("diameter lower bound", ds.lower),
            ("far pair", f"{y} {z}"),
            ("midpoint", mid),
            ("midpoint eccentricity", ds.midpoint_ecc),
            ("searches", ds.bfs_count),
        ]
    else:
        res = ifub(g, start=start)
        payload = {
            "lower": res.lower,
            "upper": res.upper,
            "exact": res.exact,
            "bfs_count": res.bfs_count,
            "component_size": res.component_size,
            "diameter": res.diameter if res.exact else None,
        }
        rows = [
            ("diameter", res.diameter if res.exact else f"{res.lower}..{res.upper}"),
            ("component size", res.component_size),
            ("searches", res.bfs_count),
        ]
    log.info("diameter wall=%.3fs", time.perf_counter() - t0)
    _print_table(rows)
    if ns.output:
        _dump_json(_json_safe(payload), ns.output)
        _write_manifest(ns, [ns.graph], [ns.output])
    return 0


def cmd_gaps(ns) -> int:
    g = _load_graph(ns.graph)
    hist = gap_histogram(g)
    total = int(hist.sum())
    rows = []
    for b, count in enumerate(hist):
        lo, hi = 1 << b, (1 << (b + 1)) - 1
        span = str(lo) if lo == hi else f"{lo}..{hi}"
        pct = 100.0 * count / total if total else 0.0
        rows.append((f"2^{b}", span, int(count), f"{pct:.2f}"))
    _print_table(rows, header=("bin", "gap", "arcs", "%"))
    if ns.output:
        with open(ns.output, "w", encoding="ascii") as fh:
            fh.write("bin\tgap_lo\tgap_hi\tarcs\n")
            for b, count in enumerate(hist):
                fh.write(f"{b}\t{1 << b}\t{(1 << (b + 1)) - 1}\t{int(count)}\n")
        _write_manifest(ns, [ns.graph], [ns.output])
    return 0


def cmd_bound(ns) -> int:
    rs = RunSet.load(ns.runs_file)
    bounds = [run_length_lower_bound(r) for r in rs.runs]
    rows = [
        (i, r.m or "exact", r.seed, r.iterations)
        for i, r in enumerate(rs.runs)
    ]
    _print_table(rows, header=("run", "registers", "seed", "iterations"))
    best = max(bounds)
    print(f"run-length diameter lower bound: {best}")
    if ns.output:
        _dump_json({"lower_bound": best, "per_run": bounds}, ns.output)
        _write_manifest(ns, [ns.runs_file], [ns.output])
    return 0


def cmd_export_edges(ns) -> int:
    g = _load_graph(ns.graph)
    if ns.original_ids and g.original_ids is None:
        raise ValueError(
            "no original ids available (no .ids sidecar next to the input)"
        )
    save_edge_list(g, ns.output, use_original_ids=ns.original_ids)
    print(f"wrote {g.num_arcs} arcs to {ns.output}")
    _write_manifest(ns, [ns.graph], [ns.output])
    return 0


# ---- parser ----


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hbgraph",
        description=(
            "Approximate neighbourhood functions, distance statistics and "
            "exact diameters for large graphs."
        ),
    )
    # accepted and ignored, so that older manifests, whose argv starts
    # with it, still replay
    p.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    p.add_argument(
        "-q", "--quiet", action="store_true", help="suppress progress logging"
    )
    p.add_argument("--version", action="version", version=f"hbgraph {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")
    # file arguments resolve to absolute paths as they are parsed, so a
    # manifest replays from any directory
    path = os.path.abspath

    sp = sub.add_parser("import", help="compress an edge list")
    sp.add_argument("edges", type=path, help="text file with one 'u v' arc per line")
    sp.add_argument("-o", "--output", type=path, required=True,
                    help="compressed graph file")
    sp.add_argument("--symmetrize", action="store_true",
                    help="add the reverse of every arc")
    sp.add_argument("--allow-self-loops", action="store_true")
    _codec_args(sp)
    sp.set_defaults(func=cmd_import, parser=sp)

    sp = sub.add_parser("permute", help="relabel nodes and re-encode")
    sp.add_argument("graph", type=path, help="compressed graph or edge list")
    sp.add_argument("-o", "--output", type=path, required=True)
    sp.add_argument("--perm", type=path, help="permutation file (text or binary)")
    sp.add_argument("--random", action="store_true",
                    help="use a seeded random permutation")
    sp.add_argument("--seed", type=int, default=0)
    _codec_args(sp)
    sp.set_defaults(func=cmd_permute, parser=sp)

    sp = sub.add_parser("transpose", help="reverse every arc and re-encode")
    sp.add_argument("graph", type=path)
    sp.add_argument("-o", "--output", type=path, required=True)
    _codec_args(sp)
    sp.set_defaults(func=cmd_transpose, parser=sp)

    sp = sub.add_parser("anf", help="estimate the neighbourhood function")
    sp.add_argument("graph", type=path)
    sp.add_argument("-o", "--output", type=path, required=True, help="run file (JSON)")
    sp.add_argument("-m", "--registers", type=int, default=64,
                    help="registers per counter (power of two, >= 16)")
    sp.add_argument("-r", "--runs", type=int, default=None,
                    help="independent repetitions (default 10)")
    sp.add_argument("--seed", type=int, default=0,
                    help="master seed; per-run seeds derive from it")
    # accepted and ignored: every run is change-driven now, and older
    # manifests and scripts still pass it
    sp.add_argument("--systolic", action="store_true", help=argparse.SUPPRESS)
    sp.add_argument("--exact", action="store_true",
                    help="bit-set diffusion: exact values, quadratic memory")
    sp.add_argument("--max-iters", type=int, default=None)
    sp.add_argument("--budget-bytes", type=int, default=None,
                    help="refuse to run if a run could allocate more bytes "
                         "than this (bound in README)")
    sp.set_defaults(func=cmd_anf, parser=sp)

    sp = sub.add_parser("stats", help="distance statistics from a run file")
    sp.add_argument("runs_file", type=path)
    sp.add_argument("-o", "--output", type=path, help="write statistics as JSON")
    sp.add_argument("--tsv", type=path, help="write statistics as TSV")
    sp.add_argument("--exclude-self-pairs", action="store_true",
                    help="drop the n distance-0 pairs from the distribution")
    sp.add_argument("--quantile", type=float, default=0.9,
                    help="effective-diameter quantile (default 0.9)")
    sp.set_defaults(func=cmd_stats, parser=sp)

    sp = sub.add_parser("diameter", help="exact diameter via fringe refinement")
    sp.add_argument("graph", type=path)
    sp.add_argument("-o", "--output", type=path, help="write the result as JSON")
    sp.add_argument("--start", type=int, default=None,
                    help="start node (default: highest degree)")
    sp.add_argument("--giant", action="store_true",
                    help="restrict to the largest component first")
    sp.add_argument("--sweep-only", action="store_true",
                    help="stop after the double sweep lower bound")
    sp.set_defaults(func=cmd_diameter, parser=sp)

    sp = sub.add_parser("gaps", help="histogram of successor gaps")
    sp.add_argument("graph", type=path)
    sp.add_argument("-o", "--output", type=path, help="write the histogram as TSV")
    sp.set_defaults(func=cmd_gaps, parser=sp)

    sp = sub.add_parser("bound", help="diameter lower bound from run lengths")
    sp.add_argument("runs_file", type=path)
    sp.add_argument("-o", "--output", type=path, help="write the bound as JSON")
    sp.set_defaults(func=cmd_bound, parser=sp)

    sp = sub.add_parser("export-edges", help="decode back to an edge list")
    sp.add_argument("graph", type=path)
    sp.add_argument("-o", "--output", type=path, required=True)
    sp.add_argument("--original-ids", action="store_true",
                    help="use the ids from the .ids sidecar")
    sp.set_defaults(func=cmd_export_edges, parser=sp)
    return p


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if ns.quiet else logging.INFO,
        format="%(message)s",
    )
    try:
        return ns.func(ns)
    except (ValueError, OSError, RuntimeError, EOFError, LookupError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
