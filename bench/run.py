"""latval benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

    python3 bench/run.py [--workload evaluate|verify|algebra|all]
                         [--seed N] [--seconds S] [--trace 0|1]

A run repeats one workload's round of ops, each repetition in a fresh
interpreter (``worker.py``), so no cache of the library carries over
between repetitions.  The number of repetitions follows from ``--seconds``
(by default ``run_seconds`` of BENCHMARK.json) and a fixed nominal duration
per workload, never from measured times, so a given ``--seconds`` gives the
same statistics on every commit.  Every op's output is digested and
checked; a failed check, a raised exception, a digest that differs between
repetitions or from the stored reference for the seed counts as a failed
op.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates traced and untraced repetitions and reports
the per-layer metrics (counts of one repetition, which must repeat exactly,
and median times).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The run
exits with 1 if a repetition cannot run or its trace is inconsistent, and
with 2 if the checkout has no library to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans  # noqa: E402  (benchmark module, found through BENCH)

# the workloads of workloads.py, which this process does not import: only
# the worker interpreters load the library
WORKLOADS = ("evaluate", "verify", "algebra")
DEFAULT_SEED = 1
# nominal seconds of one repetition at the reference speed, including
# interpreter start; a run of S seconds makes S // REP_SECONDS[workload]
# repetitions, at least MIN_REPS
REP_SECONDS = {"evaluate": 12, "verify": 15, "algebra": 5}
MIN_REPS = 2
# traced runs must show equal counts, so there are at least two of them
MIN_TRACED_REPS = 2
# op_tail_ms is the highest percentile of the per-op latencies that has at
# least this many ops beyond it
TAIL_BEYOND = 10
REP_TIMEOUT_S = 60

# The machine's speed can change by half within seconds when it is shared,
# so every time is scaled to a reference speed: multiplied by
# CALIBRATION_REF_S over the time of a fixed chunk of stdlib Fraction
# arithmetic (worker.calibration_chunk) measured next to it.  Raw times are
# printed as well.
CALIBRATION_REF_S = 0.004

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"),
]
# printed, but not in BENCHMARK.json: algebra evaluates no polygon, failed
# ops are reported as the counts attempted and failed, and raw_wall_s is
# wall_s before scaling
INFO = [("triangles_per_s", "1/s"), ("failed_ratio", "ratio"),
        ("raw_wall_s", "s")]


class RepError(Exception):
    pass


def run_rep(workload, seed, workdir, traced):
    """Run one repetition in a fresh interpreter and return its result."""
    rep_dir = tempfile.mkdtemp(dir=workdir)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--workdir", rep_dir]
    span_path = os.path.join(rep_dir, "spans.json") if traced else None
    if traced:
        cmd += ["--spans", span_path]
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise RepError(f"{workload} repetition exceeded {REP_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepError(f"{workload} repetition exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if traced:
        with open(span_path, encoding="utf-8") as fh:
            result["trace"] = spans.aggregate(json.load(fh))
    shutil.rmtree(rep_dir)
    return result


def repetitions(workload, seconds, trace):
    """(untraced, traced) repetition counts of a run."""
    reps = max(MIN_REPS, int(seconds // REP_SECONDS[workload]))
    if not trace:
        return reps, 0
    return max(1, reps // 2), max(MIN_TRACED_REPS, reps // 2)


def tail_percentile(n):
    """The highest whole percentile of n values with TAIL_BEYOND of them
    above its nearest rank (50 when there are too few values)."""
    return max((p for p in range(50, 100)
                if n - -(-n * p // 100) >= TAIL_BEYOND), default=50)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def load_references():
    with open(os.path.join(BENCH, "references.json"), encoding="utf-8") as fh:
        return json.load(fh)


def score(workload, seed, reps):
    """(attempted, failed, problems): every op of every repetition counts."""
    reference = load_references().get(workload, {}).get(str(seed))
    first = [op["digest"] for op in reps[0]["ops"]]
    attempted = failed = 0
    problems = []
    for rep in reps:
        digests = [op["digest"] for op in rep["ops"]]
        if reference is not None and len(digests) != len(reference):
            problems.append(f"{len(digests)} ops, reference has {len(reference)}")
        for i, op in enumerate(rep["ops"]):
            attempted += 1
            why = None
            if "error" in op:
                why = op["error"]
            elif op["check"] is False:
                why = "check failed"
            elif op["digest"] != first[i]:
                why = "output differs between repetitions"
            elif reference is not None and (i >= len(reference)
                                            or op["digest"] != reference[i]):
                why = "output differs from the reference"
            if why is not None:
                failed += 1
                problems.append(f"{op['label']}: {why}")
    return attempted, failed, problems


def speed(rep):
    """Per op, the reference chunk time over the mean of the chunks timed
    just before and just after it: > 1 when the machine ran slow."""
    c = rep["calibration_s"]
    return [2 * CALIBRATION_REF_S / (c[i] + c[i + 1]) for i in range(len(c) - 1)]


def scaled_latencies(rep):
    return [t * k for t, k in zip(rep["latencies_s"], speed(rep))]


def end_to_end(reps):
    """Latency metrics come from each op's median latency over the
    repetitions, so the tail is the same op rank on every commit."""
    scaled = [scaled_latencies(r) for r in reps]
    latencies = [statistics.median(op) * 1000 for op in zip(*scaled)]
    wall = statistics.median(sum(s) for s in scaled)
    pct = tail_percentile(len(latencies))
    tail = percentile(latencies, pct)
    triangles = sum(op["triangles"] for op in reps[0]["ops"])
    return {
        "setup_s": statistics.median(
            r["setup_s"] * CALIBRATION_REF_S
            / statistics.median(r["setup_calibration_s"]) for r in reps),
        "wall_s": wall,
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "triangles_per_s": triangles / wall,
        "raw_wall_s": statistics.median(sum(r["latencies_s"]) for r in reps),
    }, {"tail_percentile": pct, "ops": len(latencies),
        "beyond_tail": sum(1 for t in latencies if t > tail)}


def per_layer(plain, traced):
    """Counts from the traced repetitions (which must agree) and median
    times, each repetition's times scaled by its median speed; the overhead
    ratio compares scaled traced and untraced wall time."""
    problems = []
    first = traced[0]["trace"]
    for rep in traced[1:]:
        for name in spans.COUNTS:
            if rep["trace"][name] != first[name]:
                problems.append(f"{name} differs between traced runs: "
                                f"{first[name]} vs {rep['trace'][name]}")
    out = {}
    for name, _, _ in spans.PER_LAYER:
        if name == "trace.overhead_ratio":
            continue
        if name in spans.COUNTS:
            out[name] = first[name]
        else:
            out[name] = statistics.median(
                r["trace"][name] * CALIBRATION_REF_S
                / statistics.median(r["calibration_s"]) for r in traced)
    out["trace.overhead_ratio"] = (
        statistics.median(sum(scaled_latencies(r)) for r in traced)
        / statistics.median(sum(scaled_latencies(r)) for r in plain))
    return out, problems


def environment(seed):
    commit = "unknown"   # a checkout without .git has no commit to report
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit, "seed": seed}


def run_workload(workload, seed, seconds, trace, workdir):
    """Run the workload's repetitions; returns the summary."""
    n_plain, n_traced = repetitions(workload, seconds, trace)
    plain, traced = [], []
    while len(plain) < n_plain or len(traced) < n_traced:
        # traced runs alternate, starting traced, so both kinds see the
        # same machine conditions
        use_trace = len(traced) < n_traced and len(traced) <= len(plain)
        rep = run_rep(workload, seed, workdir, use_trace)
        (traced if use_trace else plain).append(rep)

    reps = plain + traced
    attempted, failed, problems = score(workload, seed, reps)
    metrics, tail = end_to_end(plain)
    metrics["failed_ratio"] = failed / attempted
    layers = None
    if trace:
        layers, trace_problems = per_layer(plain, traced)
        problems += trace_problems
    return {"workload": workload, "reps": len(plain), "traced_reps": len(traced),
            "attempted": attempted, "failed": failed,
            "correct": not problems, "problems": problems,
            "metrics": metrics, "tail": tail, "layers": layers}


def print_summary(summary):
    w = summary["workload"]
    m = summary["metrics"]
    print(f"[{w}] {summary['reps']} untraced + {summary['traced_reps']} traced "
          f"repetitions, {summary['attempted']} ops, {summary['failed']} failed")
    for name, unit in END_TO_END + INFO:
        if name == "triangles_per_s" and w == "algebra":
            continue
        print(f"  {w}.{name} = {m[name]:.6g} {unit}")
    t = summary["tail"]
    print(f"  ({w}.op_tail_ms is p{t['tail_percentile']} over the median "
          f"latencies of {t['ops']} ops, {t['beyond_tail']} beyond it)")
    if summary["layers"]:
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        for name, value in summary["layers"].items():
            print(f"  {w}.{name} = {value:.6g} {units[name]}")
    for problem in summary["problems"][:20]:
        print(f"  PROBLEM: {problem}")


def result_line(summaries, trace):
    """The final JSON object; metric names carry the workload name only when
    several workloads ran."""
    metrics = {}
    for s in summaries:
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        if trace:
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
            items = [(n, s["layers"][n], units[n]) for n in units]
        else:
            items = [(n, s["metrics"][n], u) for n, u in END_TO_END]
        for name, value, unit in items:
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {"correct": all(s["correct"] for s in summaries),
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="sets the repetition count (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "latval", "__init__.py")):
        print(f"no latval sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print("env " + json.dumps(environment(args.seed)))
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    summaries = []
    try:
        for name in names:
            summary = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace), workdir)
            print_summary(summary)
            summaries.append(summary)
    except (RepError, spans.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result_line(summaries, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
