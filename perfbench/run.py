"""hbgraph benchmark: the CLI pipeline end to end, on generated graphs.

    python3 perfbench/run.py --workload smallworld --seed 1 --seconds 36 --trace 0

For one workload the benchmark generates a graph from --seed (numpy
only), writes it as an edge list and runs the user's pipeline as
separate ``hbgraph`` processes, one at a time, each with ``--threads 1``:

    import -> anf -> stats -> diameter --giant

It repeats the pipeline, each time in a fresh directory, for about
--seconds (at least three times), and reports the median of each stage's
wall time, naming any stage whose samples scatter too widely to pin it. ``--trace 1`` instead alternates an untraced pipeline with one
run in-process under the span tracer (tracing.py) and reports per-layer
figures. Every output is checked against references computed without
hbgraph (graphs.py); a failed stage or check counts against
``attempted`` and makes the exit status 1.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A fuller record, with the
machine description and every sample, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import graphs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# generator, its size argument (full and for the smoke test) and stage
# flags per workload
WORKLOADS = {
    "smallworld": {
        "graph": graphs.smallworld, "size": 2000, "tiny": 300,
        "anf": ["-m", "256", "-r", "4"],
        "diameter": ["--giant", "--sweep-only"],
    },
    "locality": {
        "graph": graphs.locality, "size": 2000, "tiny": 300,
        "anf": ["-m", "64", "-r", "4", "--systolic"],
        "diameter": ["--giant"],
    },
    "scalefree": {
        "graph": graphs.scalefree, "size": 500, "tiny": 60,
        "anf": ["-m", "64", "-r", "4"],
        "diameter": ["--giant"],
    },
}
STAGES = ("import", "anf", "stats", "diameter")
# The order in which one pipeline runs its stages. stats and diameter
# are mostly interpreter start-up, whose wall time scatters more from
# one process to the next than that of the longer stages, so they run
# more than once, apart from each other; each metric is the median of
# all the samples of its stage in a run.
PIPELINE = ("import", "anf", "stats", "diameter", "stats", "diameter", "stats")
OUTPUTS = {"import": "g.hbg", "anf": "runs.json", "stats": "stats.json",
           "diameter": "diameter.json"}
MIN_REPS = 3
STAGE_TIMEOUT_S = 150
CHILD_MAIN = "import sys\nfrom hbgraph.cli import main\nsys.exit(main())"
# Starts the hbgraph process and waits for it. A child's peak RSS counts
# the memory of the process that spawned it, so the benchmark spawns
# this small launcher and the launcher spawns hbgraph.
LAUNCHER = """
import os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[2:]], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
with open(sys.argv[1], "w") as fh:
    fh.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}")
"""


class Outcome:
    """Operations attempted and failed: stage invocations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# ---- running hbgraph ----


def _child_env():
    # one BLAS thread: stages are the single-threaded baseline, and idle
    # BLAS worker threads only add start-up noise
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def hbgraph(argv, workdir: Path, tag: str):
    """Run one hbgraph process to completion.

    Returns (exit code, wall seconds, peak RSS in MB, stdout text).
    """
    out_path, measured = workdir / f"{tag}.out", workdir / f"{tag}.wait4"
    cmd = [sys.executable, "-S", "-c", LAUNCHER, str(measured),
           "-c", CHILD_MAIN, *argv]
    with open(out_path, "wb") as out, open(workdir / f"{tag}.err", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_child_env(),
                                cwd=workdir, start_new_session=True)
        try:
            proc.wait(timeout=STAGE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass  # killed below; the caller counts the stage as failed
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0 or not measured.exists():
        return proc.returncode or 1, 0.0, 0.0, out_path.read_text()
    rc, wall, rss_kb = measured.read_text().split()
    return int(rc), float(wall), int(rss_kb) / 1024.0, out_path.read_text()


def output_name(stage, k=0):
    """The file the k-th run of a stage in one pipeline writes (k from 0)."""
    name = Path(OUTPUTS[stage])
    return name.name if k == 0 else f"{name.stem}-{k}{name.suffix}"


def stage_argv(stage, spec, seed, edges: Path, d: Path, k=0):
    """Arguments of the k-th run of one stage reading from and writing into d."""
    hbg, runs = str(d / OUTPUTS["import"]), str(d / OUTPUTS["anf"])
    out = str(d / output_name(stage, k))
    if stage == "import":
        args = ["import", str(edges), "-o", out]
    elif stage == "anf":
        args = ["anf", hbg, "-o", out, *spec["anf"], "--seed", str(seed)]
    elif stage == "stats":
        args = ["stats", runs, "-o", out]
    else:
        args = ["diameter", hbg, "-o", out, *spec["diameter"]]
    return ["--threads", "1", *args]


def run_pipeline(spec, seed, edges: Path, d: Path, outcome: Outcome):
    """One untraced pipeline in directory d.

    Returns {stage: [wall seconds of each of its runs], "rss": largest
    peak RSS in MB, "stdout": {stage: text of its first run}}, or None
    once a stage fails.
    """
    d.mkdir()
    sample = {"rss": 0.0, "stdout": {}}
    for stage in PIPELINE:
        k = len(sample.setdefault(stage, []))
        rc, wall, rss, stdout = hbgraph(
            stage_argv(stage, spec, seed, edges, d, k), d, f"{stage}{k}")
        if not outcome.check(rc == 0, f"{stage} exited with status {rc}"):
            return None
        sample[stage].append(wall)
        sample["rss"] = max(sample["rss"], rss)
        sample["stdout"].setdefault(stage, stdout)
    for stage in STAGES:
        first = (d / output_name(stage)).read_bytes()
        outcome.check(
            all((d / output_name(stage, k)).read_bytes() == first
                for k in range(1, len(sample[stage]))),
            f"repeated {stage} runs wrote different files",
        )
    return sample


def run_traced(spec, seed, edges: Path, d: Path, tracer, outcome: Outcome,
               stages=STAGES):
    """One pipeline in-process under the tracer; captured stdout per stage."""
    from hbgraph import cli

    d.mkdir()
    captured = {}
    tracer.install()
    try:
        for stage in stages:
            argv = stage_argv(stage, spec, seed, edges, d)
            tracer.stage = stage
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = tracer.span("cli.stage", cli.main, argv)
            captured[stage] = buf.getvalue()
            if not outcome.check(rc == 0, f"traced {stage} exited with status {rc}"):
                return None
    finally:
        tracer.uninstall()
    return captured


# ---- correctness checks (references never use hbgraph) ----


def eta(m: int) -> float:
    return 1.06 / math.sqrt(m)


class Reference:
    """What the pipeline must reproduce, computed from the generated graph."""

    def __init__(self, graph):
        n, a, b = graph
        self.n = n
        self.arcs = 2 * int(a.size)
        self.arc_keys = np.sort(np.concatenate([a * n + b, b * n + a]))
        sizes = graphs.component_sizes(graph)
        self.components = int(sizes.size)
        self.pairs = float((sizes.astype(np.float64) ** 2).sum())
        self.diameter = int(graphs.eccentricities(graph).max())


def check_decode(d: Path, ref: Reference, outcome: Outcome):
    """Decode the HBG1 file in d back to an edge list and compare with the graph."""
    back = d / "back.txt"
    argv = ["export-edges", str(d / OUTPUTS["import"]), "-o", str(back), "--original-ids"]
    rc, *_ = hbgraph(argv, d, "export")
    if not outcome.check(rc == 0, f"export-edges exited with status {rc}"):
        return
    check_arcs(back.read_text(), ref, outcome)


def check_arcs(edge_text: str, ref: Reference, outcome: Outcome):
    pairs = np.array(edge_text.split(), dtype=np.int64).reshape(-1, 2)
    keys = np.sort(pairs[:, 0] * ref.n + pairs[:, 1])
    outcome.check(
        np.array_equal(keys, ref.arc_keys),
        "decoded HBG1 arcs differ from the generated graph",
    )


def check_outputs(d: Path, anf_stdout: str, spec, ref: Reference, outcome: Outcome):
    """Check one pipeline's run, stats and diameter files in d."""
    try:
        _check_outputs(d, anf_stdout, spec, ref, outcome)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        outcome.check(False, f"outputs in {d.name} unreadable: {exc!r}")


def _check_outputs(d, anf_stdout, spec, ref, outcome):
    runs = json.loads((d / OUTPUTS["anf"]).read_text())
    m = int(spec["anf"][spec["anf"].index("-m") + 1])
    r = int(spec["anf"][spec["anf"].index("-r") + 1])
    outcome.check(len(runs) == r, f"run file holds {len(runs)} runs, expected {r}")
    table = [line.split() for line in anf_stdout.splitlines()[1:] if line.strip()]
    outcome.check(
        len(table) == r and all(row[-1] == "no" for row in table),
        "anf reports a truncated run",
    )
    finals = []
    for k, run in enumerate(runs):
        values = np.asarray(run["values"], dtype=float)
        mono = np.asarray(run["monotone_values"], dtype=float)
        outcome.check(
            not run.get("truncated", False) and values.size == run["iterations"] + 1,
            f"run {k} is truncated",
        )
        outcome.check(
            bool(np.all(np.diff(mono) >= 0))
            and np.array_equal(mono, np.maximum.accumulate(values)),
            f"run {k}: curve is not the nondecreasing running maximum",
        )
        outcome.check(
            run["iterations"] <= ref.diameter,
            f"run {k}: {run['iterations']} iterations exceed diameter {ref.diameter}",
        )
        finals.append(mono[-1])
    err = abs(float(np.mean(finals)) - ref.pairs) / ref.pairs
    limit = 3 * eta(m) / math.sqrt(r)
    outcome.check(
        err <= limit,
        f"mean N(T) is off by {err:.4f} of sum |c|^2, limit {limit:.4f}",
    )

    stats = json.loads((d / OUTPUTS["stats"]).read_text())
    outcome.check(
        stats["n"] == ref.n and stats["runs"] == r
        and stats["iterations"] == max(run["iterations"] for run in runs),
        "stats header disagrees with the run file",
    )

    diam = json.loads((d / OUTPUTS["diameter"]).read_text())
    if "--sweep-only" in spec["diameter"]:
        outcome.check(
            0 < diam["lower"] <= ref.diameter,
            f"sweep lower bound {diam['lower']} exceeds diameter {ref.diameter}",
        )
    else:
        outcome.check(
            diam["exact"] and diam["diameter"] == ref.diameter,
            f"certified diameter {diam.get('diameter')} != reference {ref.diameter}",
        )


def same_outputs(d1: Path, d2: Path, stages=tuple(OUTPUTS)) -> bool:
    return all(
        (d1 / OUTPUTS[st]).read_bytes() == (d2 / OUTPUTS[st]).read_bytes()
        for st in stages
    )


# ---- reporting ----


def median(values):
    return float(statistics.median(values)) if values else 0.0


def stage_walls(samples, stage):
    """Every wall time of one stage over a run's pipelines."""
    return [wall for s in samples for wall in s[stage]]


def stage_median(samples, stage):
    return median(stage_walls(samples, stage))


STAGE_METRICS = {"import": "setup_s", "anf": "anf_s", "stats": "stats_s",
                 "diameter": "diameter_s"}


def unsteady(samples):
    """Stage times whose median this run cannot pin down within its bound.

    From the scatter of a stage's samples in this run, the spread
    (Q3 - Q1) / median that its median would show over repeated runs is
    about 1.25 * (sample spread) / sqrt(samples), if the samples were
    independent; repeats within a pipeline are not quite. A metric is listed when
    that exceeds a third of its BENCHMARK.json bound, i.e. when the
    machine's speed changed during the run more than the bound allows.
    Speed changes slower than a run do not show here.
    """
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file() or not samples:
        return {}
    bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    out = {}
    for stage, name in STAGE_METRICS.items():
        walls = stage_walls(samples, stage)
        if len(walls) < 2 or name not in bounds:
            continue
        q1, _, q3 = statistics.quantiles(walls, n=4)
        expected = 1.2533 * (q3 - q1) / median(walls) / math.sqrt(len(walls))
        if expected > bounds[name] / 3:
            out[name] = {"expected_spread": expected, "bound": bounds[name],
                         "samples": len(walls)}
    return out


def environment():
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
    }


def print_table(workload, metrics, outcome, shares=None, shaky=None):
    print(f"workload {workload}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    for name, why in (shaky or {}).items():
        print(f"  UNSTEADY: {name}: its {why['samples']} samples scatter so that the "
              f"median would spread by about {why['expected_spread']:.3f} over runs, "
              f"above a third of its bound {why['bound']}; the machine's speed "
              f"changed during this run")
    for stage, parts in (shares or {}).items():
        print(f"  share of untraced {stage} wall time: " + ", ".join(
            f"{name} {share:.2f}" for name, share in parts.items()))
    rate = len(outcome.failures) / max(outcome.attempted, 1)
    print(f"  {'error_rate':<36} {rate:>14.6g} ratio "
          f"({len(outcome.failures)} of {outcome.attempted} operations failed)")
    for what in outcome.failures:
        print(f"  FAILED: {what}")


# ---- main ----


def another_round(t_end, durations, minimum):
    """Whether to start one more pipeline: until `minimum` have run, then
    while, at the median pipeline time, it would end no later than half a
    pipeline past t_end. Runs so last about --seconds on average."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() + median(durations) / 2 < t_end


def measure(args, spec, ref, edges, work, outcome):
    """Untraced pipelines; returns the end-to-end metrics."""
    samples, durations = [], []
    t_end = time.perf_counter() + args.seconds
    while another_round(t_end, durations, MIN_REPS):
        t0 = time.perf_counter()
        d = work / f"rep{len(samples)}"
        sample = run_pipeline(spec, args.seed, edges, d, outcome)
        if sample is None:
            break
        check_outputs(d, sample["stdout"]["anf"], spec, ref, outcome)
        if samples:
            outcome.check(same_outputs(work / "rep0", d), "outputs differ between repetitions")
        else:
            hbg_bytes = (d / OUTPUTS["import"]).stat().st_size
        samples.append(sample)
        durations.append(time.perf_counter() - t0)
    if not samples:
        return {}, samples
    metrics = {
        "setup_s": (stage_median(samples, "import"), "s"),
        "anf_s": (stage_median(samples, "anf"), "s"),
        "stats_s": (stage_median(samples, "stats"), "s"),
        "diameter_s": (stage_median(samples, "diameter"), "s"),
        "peak_rss_mb": (median([s["rss"] for s in samples]), "MB"),
        "file_bits_per_arc": (8.0 * hbg_bytes / ref.arcs, "bits"),
    }
    return metrics, samples


def measure_traced(args, spec, ref, edges, work, outcome):
    """Alternate untraced and traced pipelines; returns per-layer metrics."""
    import tracing

    sys.path.insert(0, str(SRC))
    from hbgraph.hll import words_per_counter

    r = int(spec["anf"][spec["anf"].index("-r") + 1])
    words = words_per_counter(int(spec["anf"][spec["anf"].index("-m") + 1]))
    spans, samples, startup, traced, calls, durations = [], [], [], [], {}, []
    t_end = time.perf_counter() + args.seconds
    while another_round(t_end, durations, 1):
        t0 = time.perf_counter()
        k = len(spans)
        startup.append(hbgraph(["--version"], work, f"version{k}")[1])
        plain = work / f"plain{k}"
        sample = run_pipeline(spec, args.seed, edges, plain, outcome)
        if sample is None:
            break
        tracer = tracing.Tracer()
        traced_dir = work / f"traced{k}"
        captured = run_traced(spec, args.seed, edges, traced_dir, tracer, outcome)
        if captured is None:
            break
        check_outputs(traced_dir, captured["anf"], spec, ref, outcome)
        outcome.check(
            same_outputs(plain, traced_dir),
            "traced run, stats or diameter file differs from the untraced one",
        )
        spans.append(tracer.spans)
        traced.append(tracing.stage_seconds(tracer.spans))
        samples.append(sample)
        for s in tracer.spans:
            calls[s.name] = calls.get(s.name, 0) + 1
        for name in tracer.missing:
            calls.setdefault(name, 0)
        durations.append(time.perf_counter() - t0)
    if not spans:
        return {}, samples, calls, {}
    memory = tracing.Tracer(memory=True)
    if run_traced(spec, args.seed, edges, work / "memory", memory, outcome,
                  stages=("import", "anf")) is None:
        return {}, samples, calls, {}
    hbg_bytes = (work / "memory" / OUTPUTS["import"]).stat().st_size
    per_rep = [
        tracing.layer_metrics(s, ref.n, ref.arcs, hbg_bytes, r, words,
                              tracing.peak_bytes(memory.spans))
        for s in spans
    ]
    startup_s = median(startup)
    metrics = {"cli.startup_s": (startup_s, "s")}
    for name, (_, unit) in per_rep[0].items():
        metrics[name] = (median([rep[name][0] for rep in per_rep]), unit)
    shares = stage_shares(spans, samples, startup_s)
    # traced stage time against the untraced process minus interpreter
    # start; a stage that is all start-up (stats, on small graphs) has no
    # base left to compare with and reads 0
    for stage in STAGES:
        base = stage_median(samples, stage) - startup_s
        span = median([t[stage] for t in traced])
        pct = 100.0 * (span - base) / base if base > 0 else 0.0
        metrics[f"trace.overhead_pct.{stage}"] = (pct, "%")
    return metrics, samples, calls, shares


def stage_shares(spans, samples, startup_s):
    """Share of each stage's untraced wall time taken by start-up and by
    each layer span, medians over the traced repetitions."""
    import tracing

    per_rep = [tracing.layer_seconds(s) for s in spans]
    shares = {}
    for stage in STAGES:
        wall = stage_median(samples, stage)
        names = sorted({name for rep in per_rep for name in rep.get(stage, {})})
        shares[stage] = {"cli.startup": startup_s / wall} | {
            name: median([rep.get(stage, {}).get(name, 0.0) for rep in per_rep]) / wall
            for name in names
        }
    return shares


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                   help="'all' runs every workload in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny graphs, for the benchmark's own smoke test")
    args = p.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        return max(main(["--workload", w, *rest]) for w in WORKLOADS)
    if not (SRC / "hbgraph" / "cli.py").is_file():
        print(f"error: no hbgraph sources under {SRC}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    graph = spec["graph"](spec["tiny"] if args.tiny else spec["size"], args.seed)
    ref = Reference(graph)
    (BENCH_DIR / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_DIR / "work"))
    outcome = Outcome()
    try:
        edges = work / "edges.txt"
        edges.write_text(graphs.edge_lines(graph), encoding="ascii")
        # untimed: compiles the bytecode caches every later process reuses
        rc, *_ = hbgraph(["--version"], work, "warmup")
        outcome.check(rc == 0, f"hbgraph --version exited with status {rc}")
        calls = shares = None
        samples = []
        if args.trace:
            metrics, samples, calls, shares = measure_traced(
                args, spec, ref, edges, work, outcome)
        else:
            metrics, samples = measure(args, spec, ref, edges, work, outcome)
        if samples:
            check_decode(work / ("plain0" if args.trace else "rep0"), ref, outcome)
    finally:
        if not outcome.failures:
            shutil.rmtree(work, ignore_errors=True)

    shaky = {} if args.trace else unsteady(samples)
    print_table(args.workload, metrics, outcome, shares, shaky)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(),
        "reference": {"n": ref.n, "arcs": ref.arcs, "components": ref.components,
                      "diameter": ref.diameter},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "span_calls": calls,
        "stage_shares": shares,
        "unsteady": shaky,
        "samples": [{k: v for k, v in s.items() if k != "stdout"} for s in samples],
        "attempted": outcome.attempted,
        "failures": outcome.failures,
    }
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    suffix = "-tiny" if args.tiny else ""
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": max(outcome.attempted, 1),
        "failed": len(outcome.failures),
        "metrics": record["metrics"],
    }))
    return 1 if outcome.failures else 0


if __name__ == "__main__":
    sys.exit(main())
