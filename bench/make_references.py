"""Regenerate ``references.json``: the digest of every op's output for the
seeds given, against which ``run.py`` checks the outputs of those seeds.

    python3 bench/make_references.py [--seeds 0 1 2 ...]

Every op must pass its own check and, where it has one, its oracle: each
simple-spec ``evaluate`` result is compared at full order with the Laplace
moment oracle, so that the references do not come from the engine alone.
Run it only when the workloads change, on a commit whose outputs are
trusted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from worker import ROOT, finish_ops, import_latval, run_ops  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    import_latval()
    from workloads import WORKLOADS

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    refs = {}
    try:
        for name, build in WORKLOADS.items():
            refs[name] = {}
            for seed in args.seeds:
                ops = build(seed, workdir)
                _, _, outputs = run_ops(ops)
                results = finish_ops(ops, outputs)
                bad = [r for r in results if r["check"] is not True]
                bad += [{"label": op.label, "error": "differs from the oracle"}
                        for op, (_, out) in zip(ops, outputs)
                        if op.oracle is not None and not op.oracle(out)]
                if bad:
                    raise SystemExit(f"{name} seed {seed}: {bad[0]}")
                refs[name][str(seed)] = [r["digest"] for r in results]
                print(f"{name} seed {seed}: {len(results)} ops", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(BENCH, "references.json"), "w",
              encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
