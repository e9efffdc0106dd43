"""One repetition of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --workdir DIR
        --spawned T [--spans FILE]

``--spawned`` is the CLOCK_MONOTONIC reading (``time.monotonic()``) taken
by the parent just before it started this interpreter, so set-up time runs
from interpreter start to the first op.  The timed phase is the sum of the
op latencies; the calibration chunks timed between ops are not part of it.
With ``--spans`` the ops are traced and the spans are written to FILE.  The
last line of standard output is a JSON object with the measurements and,
per op, its digest and check; ``run.py`` turns those into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_CHUNKS = 7


def import_latval():
    """Import the library from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import latval
    where = os.path.dirname(os.path.abspath(latval.__file__))
    if where != os.path.join(src, "latval"):
        raise SystemExit(f"latval imported from {where}, not from {src}")
    return latval


def calibration_chunk():
    """A fixed piece of stdlib Fraction arithmetic, timed between ops to
    measure the machine's momentary speed; it calls no library code."""
    s = Fraction(0)
    for i in range(1, 1201):
        s += Fraction(i % 97 + 1, i % 13 + 1)
    return s


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_ops(ops, recorder=None):
    """The timed phase: every op once, in order, with a calibration chunk
    before the first op and after each op.  Returns (latencies, chunks,
    outputs): len(ops) op times, len(ops) + 1 chunk times, and per op
    (True, value) or (False, error text)."""
    latencies, outputs = [], []
    chunks = [_timed(calibration_chunk)]
    if recorder is not None:
        recorder.install()
    try:
        for op in ops:
            start = time.perf_counter()
            try:
                outputs.append((True, op.run()))
            except Exception as exc:   # an op that raises counts as failed
                outputs.append((False, f"{type(exc).__name__}: {exc}"))
            latencies.append(time.perf_counter() - start)
            chunks.append(_timed(calibration_chunk))
    finally:
        if recorder is not None:
            recorder.uninstall()
    return latencies, chunks, outputs


def finish_ops(ops, outputs):
    """Digest and check every output, after the timed phase."""
    results = []
    for op, (ran, value) in zip(ops, outputs):
        entry = {"label": op.label, "digest": None, "check": False,
                 "triangles": op.triangles}
        if not ran:
            entry["error"] = value
        else:
            try:
                entry["digest"], entry["check"] = op.finish(value)
            except Exception as exc:   # a check that raises is a failed op
                entry["error"] = f"{type(exc).__name__}: {exc}"
        results.append(entry)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    import_latval()
    import spans
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.monotonic() - args.spawned
    # the machine's speed just after set-up, from several chunks so that
    # one slow chunk does not skew the scaled set-up time
    setup_chunks = [_timed(calibration_chunk) for _ in range(SETUP_CHUNKS)]
    recorder = spans.SpanRecorder() if args.spans else None
    latencies, chunks, outputs = run_ops(ops, recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        recorder.dump(args.spans, sum(latencies))
    print(json.dumps({"setup_s": setup_s, "setup_calibration_s": setup_chunks,
                      "latencies_s": latencies,
                      "calibration_s": chunks, "peak_rss_mb": peak_rss_mb,
                      "ops": finish_ops(ops, outputs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
