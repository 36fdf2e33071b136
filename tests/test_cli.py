import argparse
import json
import math
import os
import shlex

import numpy as np
import pytest

from hbgraph.cli import _build_parser, _load_graph, _save_ids, main, run_manifest
from hbgraph.diameter import giant_component
from hbgraph.engine import RunSet, _peak_bytes
from hbgraph.graph import Graph, apply_permutation, info_lower_bound, random_permutation, transpose
from hbgraph.storage import CodecConfig, encode
from hbgraph.storage import save as save_compressed
from hbgraph.storage import load as load_compressed
from util import band, encode_full, er, from_pairs, save_hbg1, save_hbg2, sym_from_pairs


@pytest.fixture()
def edges_file(tmp_path):
    g = er(80, 0.05, seed=12)
    p = tmp_path / "edges.txt"
    with open(p, "w") as fh:
        for u in range(g.n):
            for v in g.successors(u).tolist():
                fh.write(f"{u} {v}\n")
    return str(p)


def ok(argv):
    assert main(argv) == 0


class TestImport:
    def test_import_and_export_round_trip(self, tmp_path, edges_file, capsys):
        hbg = str(tmp_path / "g.hbg")
        ok(["import", edges_file, "-o", hbg])
        out = capsys.readouterr().out
        assert "bits/arc" in out
        back = str(tmp_path / "back.txt")
        # import relabels by first appearance; original ids restore the text
        ok(["export-edges", hbg, "-o", back, "--original-ids"])
        a = sorted(open(edges_file).read().split("\n"))
        b = sorted(open(back).read().split("\n"))
        assert a == b

    def test_report_counts_the_whole_file_and_tallies_survive(self, tmp_path, capsys):
        g = band(400, 3)
        src = tmp_path / "e.txt"
        src.write_text("".join(f"{u} {v}\n" for u in range(g.n) for v in g.successors(u).tolist()))
        hbg = str(tmp_path / "g.hbg")
        # copying and intervals given, so that both tallies count something
        ok(["import", str(src), "-o", hbg, "--window", "7", "--min-interval", "4"])
        rows = dict(line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines()
                    if not line.startswith("manifest"))
        arcs = int(rows["arcs"])
        assert rows["file bits per arc"] == f"{8 * os.path.getsize(hbg) / arcs:.3f}"
        assert float(rows["file bits per arc"]) > float(rows["bits per arc"])
        # the codec tallies read the same after a reload as after encoding
        enc = load_compressed(hbg)
        again = encode(enc.decode(), enc.cfg)
        assert enc.copied_arcs > 0 and enc.interval_arcs > 0
        assert (enc.copied_arcs, enc.interval_arcs) == (again.copied_arcs, again.interval_arcs)
        assert rows["copied arcs %"] == f"{100 * enc.copy_fraction:.2f}"
        assert rows["interval arcs %"] == f"{100 * enc.interval_fraction:.2f}"
        # a symmetric graph without self-loops: arcs / 2 edges among n(n+1)/2 pairs
        floor = info_lower_bound(g.n, arcs, symmetric=True) / arcs
        assert rows["size floor bits/arc"] == f"{floor:.3f}"
        assert floor < info_lower_bound(g.n, arcs) / arcs

    def test_hbg1_input_still_read(self, tmp_path, edges_file):
        hbg, old = str(tmp_path / "g.hbg"), str(tmp_path / "old.hbg")
        ok(["import", edges_file, "-o", hbg])
        enc = load_compressed(hbg)
        save_hbg1(encode_full(enc.decode(), enc.cfg), old, True)
        for path in (hbg, old):
            ok(["export-edges", path, "-o", path + ".txt"])
        assert open(hbg + ".txt").read() == open(old + ".txt").read()

    def test_every_container_reads_alike(self, tmp_path):
        # a self-loop at 0, isolated nodes 4 and 6, and node 5, whose only
        # neighbour is below it, so that its upper list is empty; the
        # HBG1 and HBG2 flag is ignored, so a file stored unflagged
        # reads as the flagged one does
        g = sym_from_pairs(7, [(0, 0), (0, 2), (1, 2), (2, 3), (3, 5)])
        assert g.successors(5).tolist() == [3]
        paths = [str(tmp_path / f"g{v}.hbg") for v in ("1", "1-unflagged", "2", "2-unflagged",
                                                       "3", "3-full")]
        save_hbg1(encode_full(g), paths[0], True)
        save_hbg1(encode_full(g), paths[1], False)
        save_hbg2(encode_full(g), paths[2], True)
        save_hbg2(encode_full(g), paths[3], False)
        save_compressed(encode(g), paths[4])
        save_compressed(encode_full(g), paths[5])
        runs = []
        for path in paths:
            assert _load_graph(path) == g
            ok(["anf", path, "-o", path + ".runs.json", "--seed", "1"])
            runs.append(open(path + ".runs.json", "rb").read())
        assert all(r == runs[0] for r in runs)

    def test_symmetry_detected_on_paired_arcs(self, tmp_path, edges_file):
        hbg = str(tmp_path / "g.hbg")
        ok(["import", edges_file, "-o", hbg])
        assert load_compressed(hbg).upper

    def test_edge_list_input_is_its_imported_file(self, tmp_path, edges_file):
        # a symmetric edge list given to permute, transpose, anf or
        # diameter is flagged as its import is
        hbg = str(tmp_path / "g.hbg")
        ok(["import", edges_file, "-o", hbg])
        for name, graph in (("e", edges_file), ("g", hbg)):
            out = str(tmp_path / name)
            ok(["permute", graph, "-o", out + ".p.hbg", "--random", "--seed", "3"])
            ok(["transpose", graph, "-o", out + ".t.hbg"])
            ok(["anf", graph, "-o", out + ".runs.json", "-m", "16", "-r", "2"])
            ok(["diameter", graph, "--giant", "-o", out + ".d.json"])
        for suffix in (".p.hbg", ".t.hbg"):
            e, g = (load_compressed(str(tmp_path / k) + suffix) for k in "eg")
            assert e.upper and g.upper
            assert e.decode() == g.decode()
        for suffix in (".runs.json", ".d.json"):
            e, g = (open(str(tmp_path / k) + suffix, "rb").read() for k in "eg")
            assert e == g, suffix
        assert RunSet.load(str(tmp_path / "e.runs.json")).runs[0].graph_id == (
            load_compressed(hbg).decode().fingerprint())

    def test_permute_and_transpose_choose_the_codec_for_what_they_write(self, tmp_path):
        # a random order moves this band's best code from zeta_2 to zeta_3,
        # so a codec taken over from the input file would show
        g = band(1000, 1)
        edges = tmp_path / "e.txt"
        edges.write_text("".join(f"{u} {v}\n" for u in range(g.n) for v in g.successors(u).tolist()))
        hbg = str(tmp_path / "g.hbg")
        ok(["import", str(edges), "-o", hbg])
        for name, graph in (("e", str(edges)), ("g", hbg)):
            out = str(tmp_path / name)
            ok(["permute", graph, "-o", out + ".p.hbg", "--random", "--seed", "3"])
            ok(["transpose", graph, "-o", out + ".t.hbg"])
        imported = load_compressed(hbg).decode()
        written = {".p.hbg": apply_permutation(imported, random_permutation(g.n, 3)),
                   ".t.hbg": transpose(imported)}
        for suffix, graph in written.items():
            ref = tmp_path / ("ref" + suffix)
            save_compressed(encode(graph, CodecConfig(None, None, None, None)), ref)
            for k in "eg":
                assert (tmp_path / (k + suffix)).read_bytes() == ref.read_bytes(), k + suffix
            e, f = ((tmp_path / (k + suffix + ".ids")).read_bytes() for k in "eg")
            assert e == f, suffix
        assert load_compressed(str(tmp_path / "e.p.hbg")).cfg != load_compressed(hbg).cfg

    def test_symmetrize_flag(self, tmp_path):
        src = tmp_path / "e.txt"
        src.write_text("0 1\n1 2\n")
        hbg = str(tmp_path / "g.hbg")
        ok(["import", str(src), "-o", hbg, "--symmetrize"])
        enc = load_compressed(hbg)
        assert enc.upper and enc.num_arcs == 4

    def test_codec_flags_respected(self, tmp_path, edges_file):
        hbg = str(tmp_path / "g.hbg")
        ok(["import", edges_file, "-o", hbg, "--window", "0",
            "--min-interval", "0", "--code", "gamma"])
        cfg = load_compressed(hbg).cfg
        assert cfg.window == 0 and cfg.min_interval == 0
        assert cfg.residual_code == "gamma"

    def test_original_ids_survive(self, tmp_path):
        src = tmp_path / "e.txt"
        src.write_text("100 200\n200 300\n")
        hbg = str(tmp_path / "g.hbg")
        ok(["import", str(src), "-o", hbg])
        assert os.path.exists(hbg + ".ids")
        back = str(tmp_path / "back.txt")
        ok(["export-edges", hbg, "-o", back, "--original-ids"])
        assert sorted(open(back).read().split()) == sorted("100 200 200 300".split())

    @pytest.mark.parametrize("flags", [
        ["--window", "7", "--min-interval", "4", "--code", "zeta", "--zeta-k", "3"],
        ["--window", "3", "--min-interval", "2", "--code", "delta", "--zeta-k", "4"],
        ["--window", "0", "--min-interval", "0", "--code", "gamma", "--zeta-k", "2"],
    ], ids=["defaults", "w3", "w0"])
    def test_explicit_flags_write_that_encoding(self, tmp_path, flags):
        g = band(300, 4)
        src = tmp_path / "e.txt"
        src.write_text("".join(f"{u} {v}\n" for u in range(g.n) for v in g.successors(u).tolist()))
        hbg, ref = tmp_path / "g.hbg", tmp_path / "ref.hbg"
        ok(["import", str(src), "-o", str(hbg), *flags])
        w, i, code, k = flags[1::2]
        g = load_compressed(str(hbg)).decode()  # the import's relabelling of band
        save_compressed(encode(g, CodecConfig(int(w), int(i), code, int(k))), ref)
        assert hbg.read_bytes() == ref.read_bytes()

    def test_unset_flags_are_chosen_and_recorded(self, tmp_path):
        g = band(300, 4)
        src = tmp_path / "e.txt"
        src.write_text("".join(f"{u} {v}\n" for u in range(g.n) for v in g.successors(u).tolist()))
        hbg = str(tmp_path / "g.hbg")
        ok(["import", str(src), "-o", hbg])
        enc = load_compressed(hbg)
        cfg = enc.cfg
        assert cfg == encode(enc.decode(), CodecConfig(None, None, None, None)).cfg
        argv = json.loads(open(hbg + ".manifest.json").read())["argv"]
        assert argv[argv.index("--window"):] == [
            "--window", str(cfg.window), "--min-interval", str(cfg.min_interval),
            "--code", cfg.residual_code, "--zeta-k", str(cfg.zeta_k)]
        _assert_replays(hbg + ".manifest.json", str(tmp_path / "replay"))

    def test_ids_sidecar_bytes(self, tmp_path):
        g = Graph.from_arcs(3, [0, 1], [1, 2], original_ids=np.array([2**40 + 7, 0, 2**32]))
        assert _save_ids(g, str(tmp_path / "g.hbg")) == [str(tmp_path / "g.hbg.ids")]
        assert (tmp_path / "g.hbg.ids").read_bytes() == b"1099511627783\n0\n4294967296\n"
        assert _save_ids(Graph.from_arcs(2, [0], [1]), str(tmp_path / "h.hbg")) == []

    def test_self_loop_rejected_without_flag(self, tmp_path, capsys):
        src = tmp_path / "e.txt"
        src.write_text("1 1\n")
        assert main(["import", str(src), "-o", str(tmp_path / "g.hbg")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_size_floor_counts_a_self_loop_as_one_edge(self, tmp_path, capsys):
        # arcs 0-0, 0-1 and 1-0: 2 edges among the 3 unordered pairs of 2 nodes
        src = tmp_path / "e.txt"
        src.write_text("0 0\n0 1\n1 0\n")
        ok(["import", str(src), "-o", str(tmp_path / "g.hbg"), "--allow-self-loops"])
        rows = dict(line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines()
                    if not line.startswith("manifest"))
        assert rows["symmetric"] == "yes"
        assert rows["size floor bits/arc"] == f"{math.log2(3) / 3:.3f}"

    def test_missing_input_is_clean_error(self, tmp_path, capsys):
        rc = main(["import", str(tmp_path / "absent.txt"), "-o", str(tmp_path / "g.hbg")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestPermuteTranspose:
    def test_random_permutation_preserves_structure(self, tmp_path, edges_file):
        hbg = str(tmp_path / "g.hbg")
        out = str(tmp_path / "p.hbg")
        ok(["import", edges_file, "-o", hbg])
        ok(["permute", hbg, "-o", out, "--random", "--seed", "3"])
        a = load_compressed(hbg).decode()
        b = load_compressed(out).decode()
        assert a.n == b.n and a.num_arcs == b.num_arcs
        assert a.fingerprint() != b.fingerprint()  # relabelled for real

    def test_permutation_file(self, tmp_path):
        src = tmp_path / "e.txt"
        src.write_text("0 1\n1 2\n")
        hbg, out = str(tmp_path / "g.hbg"), str(tmp_path / "p.hbg")
        perm = tmp_path / "perm.txt"
        perm.write_text("2\n0\n1\n")
        ok(["import", str(src), "-o", hbg])
        ok(["permute", hbg, "-o", out, "--perm", str(perm)])
        g = load_compressed(out).decode()
        assert g.successors(2).tolist() == [0]
        assert g.successors(0).tolist() == [1]

    def test_transpose_reverses(self, tmp_path):
        src = tmp_path / "e.txt"
        src.write_text("0 1\n0 2\n")
        hbg, out = str(tmp_path / "g.hbg"), str(tmp_path / "t.hbg")
        ok(["import", str(src), "-o", hbg])
        ok(["transpose", hbg, "-o", out])
        t = load_compressed(out).decode()
        assert t.successors(1).tolist() == [0]
        assert t.successors(2).tolist() == [0]

    def test_permute_needs_exactly_one_source(self, tmp_path, edges_file):
        hbg = str(tmp_path / "g.hbg")
        ok(["import", edges_file, "-o", hbg])
        assert main(["permute", hbg, "-o", str(tmp_path / "p.hbg")]) == 1


class TestAnfStats:
    def _import(self, tmp_path, edges_file):
        hbg = str(tmp_path / "g.hbg")
        ok(["import", edges_file, "-o", hbg])
        return hbg

    def test_anf_writes_runs(self, tmp_path, edges_file):
        hbg = self._import(tmp_path, edges_file)
        runs = str(tmp_path / "runs.json")
        ok(["anf", hbg, "-o", runs, "-m", "16", "-r", "4", "--seed", "7"])
        rs = RunSet.load(runs)
        assert len(rs) == 4
        assert {r.m for r in rs.runs} == {16}
        assert len({r.seed for r in rs.runs}) == 4

    def test_anf_exact_conflicts_with_runs(self, tmp_path, edges_file, capsys):
        hbg = self._import(tmp_path, edges_file)
        rc = main(["anf", hbg, "-o", str(tmp_path / "r.json"), "--exact", "-r", "3"])
        assert rc == 1
        assert "drop --runs" in capsys.readouterr().err

    def test_anf_exact_budget(self, tmp_path, edges_file, capsys):
        # a budget at the bound changes nothing; one byte under it is refused
        hbg = self._import(tmp_path, edges_file)
        bound = _peak_bytes(_load_graph(hbg), 0)
        free, held, out = (str(tmp_path / f) for f in ("free.json", "held.json", "r.json"))
        ok(["anf", hbg, "-o", free, "--exact"])
        ok(["anf", hbg, "-o", held, "--exact", "--budget-bytes", str(bound)])
        assert open(free, "rb").read() == open(held, "rb").read()
        capsys.readouterr()
        rc = main(["anf", hbg, "-o", out, "--exact", "--budget-bytes", str(bound - 1)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"needs up to {bound} bytes" in err
        assert not os.path.exists(out)

    def test_memory_error_is_one_line(self, tmp_path, edges_file, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 125. GiB")

        hbg = self._import(tmp_path, edges_file)
        monkeypatch.setattr("hbgraph.cli.run_exact", exhausted)
        out = str(tmp_path / "r.json")
        capsys.readouterr()
        assert main(["anf", hbg, "-o", out, "--exact"]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 125. GiB\n"
        assert not os.path.exists(out)

    def test_anf_exact_run(self, tmp_path, edges_file):
        hbg = self._import(tmp_path, edges_file)
        runs = str(tmp_path / "exact.json")
        ok(["anf", hbg, "-o", runs, "--exact"])
        rs = RunSet.load(runs)
        assert len(rs) == 1 and rs.runs[0].exact

    def test_systolic_matches_plain(self, tmp_path, edges_file):
        # the retired flag is accepted and changes nothing
        hbg = self._import(tmp_path, edges_file)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        ok(["anf", hbg, "-o", a, "-r", "2", "--seed", "5"])
        ok(["anf", hbg, "-o", b, "-r", "2", "--seed", "5", "--systolic"])
        assert open(a, "rb").read() == open(b, "rb").read()
        payload = json.loads(open(b + ".manifest.json").read())
        assert "--systolic" not in payload["argv"]

    def test_stats_json_and_tsv(self, tmp_path, edges_file, capsys):
        hbg = self._import(tmp_path, edges_file)
        runs = str(tmp_path / "runs.json")
        ok(["anf", hbg, "-o", runs, "-r", "5"])
        stats_json = str(tmp_path / "stats.json")
        stats_tsv = str(tmp_path / "stats.tsv")
        ok(["stats", runs, "-o", stats_json, "--tsv", stats_tsv])
        payload = json.loads(open(stats_json).read())
        for key in ("mean", "variance", "spid", "effective_diameter"):
            assert key in payload
        lines = open(stats_tsv).read().strip().split("\n")
        assert lines[0].startswith("statistic\t")
        assert len(lines) > 5
        assert "mean" in capsys.readouterr().out

    def test_stats_single_run_has_no_errors_column(self, tmp_path, edges_file):
        hbg = self._import(tmp_path, edges_file)
        runs = str(tmp_path / "one.json")
        ok(["anf", hbg, "-o", runs, "-r", "1"])
        out = str(tmp_path / "stats.json")
        tsv = str(tmp_path / "stats.tsv")
        ok(["stats", runs, "-o", out, "--tsv", tsv])
        payload = json.loads(open(out).read())
        assert payload["runs"] == 1
        assert payload["mean_se"] is None
        lines = open(tsv).read().splitlines()
        assert lines[0] == "statistic\tvalue"
        assert "mean_se\tn/a" in lines

    def test_bound_reports_run_length(self, tmp_path, edges_file):
        hbg = self._import(tmp_path, edges_file)
        runs = str(tmp_path / "runs.json")
        ok(["anf", hbg, "-o", runs, "-r", "3"])
        out = str(tmp_path / "bound.json")
        ok(["bound", runs, "-o", out])
        payload = json.loads(open(out).read())
        assert payload["lower_bound"] >= 1
        assert len(payload["per_run"]) == 3
        assert payload["lower_bound"] == max(payload["per_run"])

    def test_bound_and_stats_refuse_truncated_runs(self, tmp_path, capsys):
        src = tmp_path / "path.txt"
        src.write_text("".join(f"{i} {i + 1}\n" for i in range(20)))
        hbg = str(tmp_path / "g.hbg")
        ok(["import", str(src), "-o", hbg, "--symmetrize"])
        runs = str(tmp_path / "runs.json")
        ok(["anf", hbg, "-o", runs, "-m", "64", "-r", "2", "--max-iters", "3"])
        assert all(r.truncated for r in RunSet.load(runs).runs)
        capsys.readouterr()
        for cmd in ("bound", "stats"):
            assert main([cmd, runs]) == 1
            assert capsys.readouterr().err.startswith("error:")


class TestDiameterGaps:
    def test_directed_graph_refusal_names_the_flag(self, tmp_path, capsys):
        # the directed path 0 -> 1 -> 2 -> 3, from its file or its edge list
        src = tmp_path / "e.txt"
        src.write_text("0 1\n1 2\n2 3\n")
        hbg = str(tmp_path / "g.hbg")
        ok(["import", str(src), "-o", hbg])
        for graph in (hbg, str(src)):
            for extra in ([], ["--sweep-only"], ["--giant"]):
                capsys.readouterr()
                assert main(["diameter", graph, *extra]) == 1
                assert "--symmetrize" in capsys.readouterr().err
        # the override is gone: asking for it is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["diameter", hbg, "--allow-asymmetric"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("write", [save_hbg1, save_hbg2], ids=["hbg1", "hbg2"])
    def test_a_legacy_flag_is_not_trusted(self, write, tmp_path, capsys):
        # 0-1, 1-2 and 2-3 both ways plus the one-way arc 0 -> 3, in a
        # file whose header says symmetric
        g = from_pairs(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (0, 3)])
        hbg = str(tmp_path / "g.hbg")
        write(encode_full(g), hbg, True)
        for extra in ([], ["--sweep-only"], ["--giant"]):
            capsys.readouterr()
            assert main(["diameter", hbg, *extra]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "only correct on symmetric graphs" in err

    def test_diameter_json(self, tmp_path, edges_file):
        hbg = str(tmp_path / "g.hbg")
        ok(["import", edges_file, "-o", hbg])
        out = str(tmp_path / "diam.json")
        ok(["diameter", hbg, "--giant", "-o", out])
        payload = json.loads(open(out).read())
        assert payload["exact"] is True
        assert payload["diameter"] >= 1
        assert payload["bfs_count"] <= payload["component_size"] + 2

    def test_sweep_only(self, tmp_path, edges_file):
        hbg = str(tmp_path / "g.hbg")
        ok(["import", edges_file, "-o", hbg])
        out = str(tmp_path / "sweep.json")
        ok(["diameter", hbg, "--giant", "--sweep-only", "-o", out])
        payload = json.loads(open(out).read())
        assert payload["exact"] is False
        assert payload["bfs_count"] == 3

    def test_giant_on_dusty_graph_is_golden(self, tmp_path):
        # a 12-node core with a 6-node pendant path, hidden among 300
        # two- and three-node components; the bytes and ids were recorded
        # from the BFS-per-component labeller
        core = [(i, (i + 1) % 12) for i in range(12)]
        core += [(i, (i + 5) % 12) for i in range(0, 12, 2)]
        core += [(0, 12)] + [(i, i + 1) for i in range(12, 17)]
        dust, nxt = [], 18
        for k in range(300):
            size = 2 + k % 2
            dust += [(nxt + j, nxt + j + 1) for j in range(size - 1)]
            nxt += size
        # dust first, then the core interleaved, so the giant gets no
        # low ids when import relabels by first appearance
        lines, rest = dust[:100], dust[100:]
        for i, e in enumerate(core):
            lines += [e] + rest[i * 14 : (i + 1) * 14]
        lines += rest[len(core) * 14 :]
        src = tmp_path / "e.txt"
        src.write_text("".join(
            f"{5000 + u * 97 % 769} {5000 + v * 97 % 769}\n" for u, v in lines))
        hbg = str(tmp_path / "g.hbg")
        ok(["import", str(src), "-o", hbg, "--symmetrize"])
        out = str(tmp_path / "d.json")
        ok(["diameter", hbg, "--giant", "-o", out])
        assert open(out, "rb").read() == (
            b'{\n  "bfs_count": 6,\n  "component_size": 18,\n  "diameter": 9,\n'
            b'  "exact": true,\n  "lower": 9,\n  "upper": 9\n}\n')
        ok(["diameter", hbg, "--giant", "--sweep-only", "-o", out])
        # nodes in the loaded graph's ids; in the giant's own ids, which
        # were reported before, they are 17, 3 and 13
        assert open(out, "rb").read() == (
            b'{\n  "bfs_count": 3,\n  "component_size": null,\n  "exact": false,\n'
            b'  "far_pair": [\n    721,\n    217\n  ],\n  "lower": 9,\n'
            b'  "midpoint": 623,\n  "midpoint_ecc": 5,\n  "upper": null\n}\n')
        g = _load_graph(hbg)
        bare = Graph(g.n, g.indptr, g.indices)
        assert giant_component(bare).original_ids[[17, 3, 13]].tolist() == [721, 217, 623]
        assert giant_component(g).original_ids.tolist() == [
            5000, 5097, 5194, 5291, 5388, 5485, 5582, 5679, 5007,
            5104, 5201, 5298, 5395, 5492, 5589, 5686, 5014, 5111,
        ]

    def test_giant_keeps_the_loaded_ids(self, tmp_path, capsys):
        # the giant is 2..6; node 0 is in a two-node component
        src = tmp_path / "e.txt"
        src.write_text("0 1\n2 3\n3 4\n4 5\n5 6\n")
        hbg, out = str(tmp_path / "g.hbg"), str(tmp_path / "d.json")
        ok(["import", str(src), "-o", hbg, "--symmetrize"])
        for extra in ([], ["--start", "2"]):
            ok(["diameter", hbg, "--giant", "--sweep-only", "-o", out, *extra])
            payload = json.loads(open(out).read())
            assert sorted(payload["far_pair"]) == [2, 6]
            assert payload["midpoint"] == 4
        ok(["diameter", hbg, "--giant", "--start", "5", "-o", out])
        assert json.loads(open(out).read())["diameter"] == 4
        capsys.readouterr()
        for start in ("0", "1", "7", "-1"):
            for mode in ([], ["--sweep-only"]):
                assert main(["diameter", hbg, "--giant", "--start", start, *mode]) == 1
                assert capsys.readouterr().err.startswith("error: start node")

    @pytest.mark.parametrize("start", ["99", "-1"])
    @pytest.mark.parametrize("mode", [[], ["--sweep-only"]])
    def test_start_out_of_range_is_clean_error(self, tmp_path, edges_file,
                                               capsys, start, mode):
        hbg = str(tmp_path / "g.hbg")
        ok(["import", edges_file, "-o", hbg])
        capsys.readouterr()
        assert main(["diameter", hbg, "--start", start, *mode]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_gaps_tsv(self, tmp_path, edges_file, capsys):
        hbg = str(tmp_path / "g.hbg")
        ok(["import", edges_file, "-o", hbg])
        out = str(tmp_path / "gaps.tsv")
        ok(["gaps", hbg, "-o", out])
        lines = open(out).read().strip().split("\n")
        assert lines[0] == "bin\tgap_lo\tgap_hi\tarcs"
        total = sum(int(l.split("\t")[3]) for l in lines[1:])
        assert total == load_compressed(hbg).num_arcs


class TestManifests:
    def test_written_next_to_first_output(self, tmp_path, edges_file):
        hbg = str(tmp_path / "g.hbg")
        ok(["import", edges_file, "-o", hbg])
        man = hbg + ".manifest.json"
        assert os.path.exists(man)
        payload = json.loads(open(man).read())
        assert payload["tool"] == "hbgraph"
        assert payload["command"] == "import"
        assert payload["inputs"][0]["path"] == os.path.abspath(edges_file)
        assert len(payload["inputs"][0]["sha256"]) == 64
        assert hbg in payload["outputs"]
        # replays must be byte-stable, so nothing clock-derived may appear
        assert "timestamp" not in json.dumps(payload).lower()

    def test_collision_suffix(self, tmp_path, edges_file):
        hbg = str(tmp_path / "g.hbg")
        ok(["import", edges_file, "-o", hbg])
        ok(["import", edges_file, "-o", hbg])
        ok(["import", edges_file, "-o", hbg])
        assert os.path.exists(hbg + ".manifest.json")
        assert os.path.exists(hbg + ".manifest-2.json")
        assert os.path.exists(hbg + ".manifest-3.json")

    def test_full_chain_replays_byte_identically(self, tmp_path, edges_file):
        wd = tmp_path / "work"
        wd.mkdir()
        hbg = str(wd / "g.hbg")
        runs = str(wd / "runs.json")
        stats = str(wd / "stats.json")
        ok(["import", edges_file, "-o", hbg])
        ok(["anf", hbg, "-o", runs, "-m", "16", "-r", "3", "--seed", "11"])
        ok(["stats", runs, "-o", stats])
        for produced in (hbg, runs, stats):
            replay_dir = str(tmp_path / ("replay_" + os.path.basename(produced)))
            mapping = run_manifest(produced + ".manifest.json", out_dir=replay_dir)
            for orig, copy in mapping.items():
                if orig.endswith(".manifest.json"):
                    continue
                assert open(orig, "rb").read() == open(copy, "rb").read(), orig

    def test_manifest_with_threads_flag_still_replays(self, tmp_path, edges_file):
        hbg = str(tmp_path / "g.hbg")
        runs = str(tmp_path / "runs.json")
        ok(["import", edges_file, "-o", hbg])
        ok(["anf", hbg, "-o", runs, "-m", "16", "-r", "2", "--seed", "3"])
        man = runs + ".manifest.json"
        payload = json.loads(open(man).read())
        assert "--threads" not in payload["argv"]
        # manifests from before the flag was retired all start this way
        payload["argv"] = ["--threads", "1"] + payload["argv"]
        with open(man, "w") as fh:
            json.dump(payload, fh)
        mapping = run_manifest(man, out_dir=str(tmp_path / "replay"))
        assert open(runs, "rb").read() == open(mapping[runs], "rb").read()

    def test_manifest_with_systolic_flag_still_replays(self, tmp_path, edges_file):
        hbg = str(tmp_path / "g.hbg")
        runs = str(tmp_path / "runs.json")
        ok(["import", edges_file, "-o", hbg])
        ok(["anf", hbg, "-o", runs, "-m", "16", "-r", "2", "--seed", "3"])
        man = runs + ".manifest.json"
        payload = json.loads(open(man).read())
        # manifests from before the flag was retired recorded it
        payload["argv"].append("--systolic")
        with open(man, "w") as fh:
            json.dump(payload, fh)
        mapping = run_manifest(man, out_dir=str(tmp_path / "replay"))
        assert open(runs, "rb").read() == open(mapping[runs], "rb").read()

    def test_tampered_input_refuses_replay(self, tmp_path, edges_file):
        hbg = str(tmp_path / "g.hbg")
        ok(["import", edges_file, "-o", hbg])
        with open(edges_file, "a") as fh:
            fh.write("0 79\n")
        with pytest.raises(ValueError, match="changed since recording"):
            run_manifest(hbg + ".manifest.json", out_dir=str(tmp_path / "r"))


# Every visible option of every subcommand, each away from its default
# in at least one case; {out} is the output directory, the other fields
# name the files of the `inputs` fixture.
FULL_CASES = [
    ["import", "{edges}", "-o", "{out}/g.hbg", "--symmetrize", "--allow-self-loops",
     "--window", "3", "--min-interval", "2", "--code", "delta", "--zeta-k", "4"],
    ["permute", "{hbg}", "-o", "{out}/p.hbg", "--perm", "{perm}", "--seed", "4",
     "--window", "0", "--min-interval", "0", "--code", "gamma", "--zeta-k", "2"],
    ["permute", "{hbg}", "-o", "{out}/p.hbg", "--random", "--seed", "4"],
    ["transpose", "{hbg}", "-o", "{out}/t.hbg", "--window", "2",
     "--min-interval", "3", "--code", "delta", "--zeta-k", "5"],
    ["anf", "{hbg}", "-o", "{out}/r.json", "-m", "16", "-r", "3", "--seed", "4",
     "--max-iters", "50", "--budget-bytes", "1000000000"],
    ["anf", "{hbg}", "-o", "{out}/r.json", "--exact", "--max-iters", "50"],
    ["stats", "{runs}", "-o", "{out}/s.json", "--tsv", "{out}/s.tsv",
     "--exclude-self-pairs", "--quantile", "0.5"],
    ["diameter", "{hbg}", "-o", "{out}/d.json", "--start", "1", "--giant"],
    ["diameter", "{hbg}", "-o", "{out}/d.json", "--start", "1", "--sweep-only"],
    ["gaps", "{hbg}", "-o", "{out}/gaps.tsv"],
    ["bound", "{runs}", "-o", "{out}/b.json"],
    ["export-edges", "{hbg}", "-o", "{out}/e.txt", "--original-ids"],
]


def _subparsers() -> dict:
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _assert_replays(manifest, out_dir):
    mapping = run_manifest(manifest, out_dir=out_dir)
    for orig, copy in mapping.items():
        assert open(orig, "rb").read() == open(copy, "rb").read(), orig


@pytest.fixture()
def inputs(tmp_path, edges_file):
    d = tmp_path / "in"
    d.mkdir()
    hbg, runs, perm = str(d / "g.hbg"), str(d / "runs.json"), str(d / "perm.txt")
    ok(["import", edges_file, "-o", hbg])
    ok(["anf", hbg, "-o", runs, "-m", "16", "-r", "2"])
    with open(perm, "w") as fh:
        fh.writelines(f"{v}\n" for v in reversed(range(load_compressed(hbg).n)))
    return {"edges": edges_file, "hbg": hbg, "runs": runs, "perm": perm}


class TestManifestArgv:
    def test_cases_set_every_visible_option(self):
        for name, sp in _subparsers().items():
            visible = [a for a in sp._actions if a.option_strings
                       and a.dest != "help" and a.help != argparse.SUPPRESS]
            cases = [sp.parse_args(c[1:]) for c in FULL_CASES if c[0] == name]
            for action in visible:
                assert any(getattr(ns, action.dest) != action.default
                           for ns in cases), (name, action.option_strings)

    @pytest.mark.parametrize(
        "case", FULL_CASES, ids=[f"{c[0]}-{i}" for i, c in enumerate(FULL_CASES)])
    def test_records_every_option_and_replays(self, tmp_path, inputs, case):
        out = tmp_path / "out"
        out.mkdir()
        argv = [tok.format(out=out, **inputs) for tok in case]
        ok(argv)
        first = argv[argv.index("-o") + 1]
        recorded = json.loads(open(first + ".manifest.json").read())["argv"]
        assert recorded[0] == case[0]
        # every option given comes back from the recorded argv, at its value
        sp = _subparsers()[case[0]]
        given, replayed = sp.parse_args(argv[1:]), sp.parse_args(recorded[1:])
        for key, value in vars(given).items():
            if value is not None:
                assert getattr(replayed, key) == value, key
        _assert_replays(first + ".manifest.json", str(tmp_path / "replay"))

    def test_older_spelling_still_replays(self, tmp_path, inputs):
        # manifests written before the argv was read off the parser spell
        # the output -o and leave out options their command did not use
        out = tmp_path / "out"
        out.mkdir()
        older = [
            ["permute", inputs["hbg"], "-o", str(out / "p.hbg"), "--perm", inputs["perm"],
             "--window", "7", "--min-interval", "4", "--code", "zeta", "--zeta-k", "3"],
            ["anf", inputs["hbg"], "-o", str(out / "x.json"), "--exact"],
            ["stats", inputs["runs"], "-o", str(out / "s.json"), "--quantile", "0.9"],
        ]
        for argv in older:
            ok(argv)
            manifest = argv[3] + ".manifest.json"
            payload = json.loads(open(manifest).read())
            payload["argv"] = argv
            with open(manifest, "w") as fh:
                json.dump(payload, fh)
            _assert_replays(manifest, str(tmp_path / ("replay-" + argv[0])))


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "hbgraph" in capsys.readouterr().out

    def test_no_command_shows_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_help_hides_threads(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "--threads" not in capsys.readouterr().out

    def test_anf_help_hides_systolic(self, capsys):
        with pytest.raises(SystemExit):
            main(["anf", "--help"])
        assert "--systolic" not in capsys.readouterr().out

    def test_errors_exit_one_not_traceback(self, tmp_path, capsys):
        rc = main(["anf", str(tmp_path / "missing.hbg"), "-o", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_readme_cli_examples_parse(self):
        # every line of README's CLI example block names real commands
        # and flags, so the documented examples cannot drift from the parser
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
        block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
        lines = [shlex.split(line, comments=True) for line in block.splitlines()]
        lines = [words for words in lines if words]
        assert len(lines) >= 9 and all(words[0] == "hbgraph" for words in lines)
        parser = _build_parser()
        for words in lines:
            assert parser.parse_args(words[1:]).command == words[1]
