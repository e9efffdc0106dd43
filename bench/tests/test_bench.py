"""Tests of the benchmark's own code: generators, span arithmetic, metric
tables and a tiny run of each workload.  Run with

    python3 -m pytest bench/tests
"""

import json
import os
import random
import types

import pytest

import generators as gen
import run
import spans
import worker
from workloads import WORKLOADS


@pytest.mark.parametrize("seed", [0, 7])
def test_polygons_are_seeded_convex_integral_and_sized(seed):
    first = [gen.random_polygon(random.Random(seed), t, 12) for t in (1, 4, 9)]
    again = [gen.random_polygon(random.Random(seed), t, 12) for t in (1, 4, 9)]
    assert first == again
    for t, verts in zip((1, 4, 9), first):
        assert all(isinstance(c, int) for v in verts for c in v)
        n = len(verts)
        assert n >= 3
        # strictly convex and counterclockwise: every turn is to the left
        for i in range(n):
            a, b, c = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
            assert gen._cross(a, b, c) > 0
        assert gen.area2(verts) == t
        assert gen.lattice_point_count(verts) <= 12


def test_maps_and_series_are_seeded():
    maps = [gen.random_unimodular(random.Random(3)) for _ in range(2)]
    assert maps[0] == maps[1]
    rng = random.Random(5)
    for _ in range(20):
        (a, b), (c, d) = (m := gen.random_unimodular(rng))[0]
        assert abs(a * d - b * c) == 1
        assert all(-3 <= e <= 3 for e in (a, b, c, d, *m[1]))
    s1 = gen.dense_coefficients(random.Random(9), 6, even=True)
    s2 = gen.dense_coefficients(random.Random(9), 6, even=True)
    assert s1 == s2 and all(v != 0 and (p + q) % 2 == 0
                            for (p, q), v in s1.items())
    assert len(s1) == sum(d + 1 for d in range(0, 7, 2))


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        d.mkdir()
        WORKLOADS["evaluate"](11, str(d), small=True)
    names = sorted(os.listdir(dirs[0]))
    assert names and names == sorted(os.listdir(dirs[1]))
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_self_times_on_a_synthetic_nested_call():
    now = [0.0]

    def advance(dt):
        now[0] += dt

    recorder = spans.SpanRecorder(clock=lambda: now[0])
    ns = types.SimpleNamespace()

    def inner():
        advance(2.0)

    def outer():
        advance(1.0)
        ns.inner()
        advance(3.0)
        ns.inner()

    # the counter costs 0.125 per inner call; it is the recorder's time,
    # not outer's
    ns.inner = recorder.wrap("series.inner", inner,
                             before=lambda args: advance(0.125))
    ns.outer = recorder.wrap("group.outer", outer)
    start = now[0]
    advance(0.5)
    ns.outer()
    advance(0.25)
    out = spans.aggregate({"wall_s": now[0] - start, "spans": recorder.spans,
                           "root_overhead_s": recorder.root_overhead})
    assert [s[0] for s in recorder.spans] == ["group.outer", "series.inner",
                                              "series.inner"]
    assert out["series.self_s"] == 4.0
    assert out["group.self_s"] == 4.0
    assert out["trace.recorder_s"] == 0.25
    assert out["trace.unspanned_s"] == 0.75
    assert out["trace.wall_s"] == 9.0
    layered = sum(out[f"{m}.self_s"] for m in spans.MODULES)
    assert layered + out["trace.recorder_s"] + out["trace.unspanned_s"] == 9.0


def _trace_of(spans_list, wall, root_overhead=0.0):
    return {"wall_s": wall, "spans": spans_list,
            "root_overhead_s": root_overhead}


def test_aggregate_rejects_impossible_spans():
    # a child longer than its parent gives the parent negative self time
    bad_child = [["group.outer", -1, 0.0, 1.0, 0.0, None],
                 ["series.inner", 0, 0.0, 2.0, 0.0, None]]
    with pytest.raises(spans.TraceError):
        spans.aggregate(_trace_of(bad_child, 3.0))
    # top-level spans longer than the timed phase
    too_long = [["group.outer", -1, 0.0, 2.0, 0.0, None]]
    with pytest.raises(spans.TraceError):
        spans.aggregate(_trace_of(too_long, 1.0))
    # recorder time at the top that leaves negative unspanned time
    with pytest.raises(spans.TraceError):
        spans.aggregate(_trace_of([["group.outer", -1, 0.0, 1.0, 0.0, None]],
                                  1.5, root_overhead=1.0))


def test_install_wraps_every_binding_and_uninstall_restores():
    from latval import geometry, laplace, series, valuation
    originals = (geometry.unimodular_triangulation, series.Series2.__mul__)
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        wrapped = geometry.unimodular_triangulation
        assert wrapped is not originals[0]
        assert valuation.unimodular_triangulation is wrapped
        assert laplace.unimodular_triangulation is wrapped
        assert series.Series2.__mul__ is not originals[1]
    finally:
        recorder.uninstall()
    assert geometry.unimodular_triangulation is originals[0]
    assert valuation.unimodular_triangulation is originals[0]
    assert series.Series2.__mul__ is originals[1]


def test_metric_tables_match_benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == spans.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS \
        == tuple(WORKLOADS)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    assert run.percentile([5.0], 75) == 5.0


def test_tail_rank_and_repetitions_do_not_depend_on_timing():
    # 98 evaluate ops: p89 has rank 88, with exactly 10 ops beyond it
    assert run.tail_percentile(98) == 89
    for n in (20, 54, 56, 66, 200):
        p = run.tail_percentile(n)
        values = list(range(n))
        beyond = sum(v > run.percentile(values, p) for v in values)
        assert beyond >= run.TAIL_BEYOND
        assert sum(v > run.percentile(values, p + 1) for v in values) \
            < run.TAIL_BEYOND
    assert run.repetitions("evaluate", 36, False) == (3, 0)
    assert run.repetitions("verify", 36, False) == (2, 0)
    assert run.repetitions("algebra", 36, False) == (7, 0)
    assert run.repetitions("evaluate", 36, True) == (1, 2)
    assert run.repetitions("algebra", 36, True) == (3, 3)
    assert run.repetitions("evaluate", 1, False) == (run.MIN_REPS, 0)


def test_chords_come_from_the_polygon_and_split_it():
    from latval import geometry
    rng = random.Random(4)
    for t in (2, 3, 4, 6):
        verts = gen.random_polygon(rng, t, 12)
        if gen.boundary_points(verts) < 4:
            continue
        ends = gen.random_chord(random.Random(t), verts)
        assert ends == gen.random_chord(random.Random(t), verts)
        P = geometry.hull_normalize(verts)
        chords = [tuple(sorted(geometry.chord_of_split(P1, P2).vertices))
                  for P1, P2 in geometry.split_pairs(P)]
        assert ends in chords
        assert len(gen.boundary_lattice_points(verts)) \
            == gen.boundary_points(verts)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_of_each_workload_has_no_failures(name, tmp_path):
    reps = []
    for traced in (False, True):
        ops = WORKLOADS[name](1, str(tmp_path), small=True)
        recorder = spans.SpanRecorder() if traced else None
        latencies, chunks, outputs = worker.run_ops(ops, recorder)
        assert len(latencies) + 1 == len(chunks) == len(ops) + 1 > 1
        reps.append({"ops": worker.finish_ops(ops, outputs)})
        if traced:
            layers = spans.aggregate({"wall_s": sum(latencies),
                                      "spans": recorder.spans,
                                      "root_overhead_s": recorder.root_overhead})
            assert layers["series.self_s"] > 0
    # a seed without stored references: checks and agreement between runs
    attempted, failed, problems = run.score(name, 10 ** 6, reps)
    assert attempted == 2 * len(reps[0]["ops"])
    assert failed == 0, problems
