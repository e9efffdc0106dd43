"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps public callables of the ``latval`` modules from the
outside: every module attribute that binds a wrapped function is replaced
for the duration of the trace, then restored.  Spans live in memory as
``[name, parent, start, end, overhead, extra]`` lists, where ``parent`` is
the index of the enclosing span (-1 at the top) and ``overhead`` is time
the recorder itself spent inside that span computing counters for its
children, so that it is not charged to any layer.

For a span, self time = duration - durations of its child spans - its
overhead.  Summed over all spans, self times plus all overhead plus the
time of the timed phase covered by no span give back the phase's wall
time.  ``aggregate`` checks what a faulty recorder would break: no self
time and no unspanned time is negative, and the top-level spans fit in the
wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("series", "group", "geometry", "valuation", "laws", "vspace",
           "linalg", "laplace", "io", "cli")

# Module functions left unwrapped: each call is a few microseconds and they
# are called per lattice point, per term or per matrix entry, so a span
# would cost more than the work it measures.  Their time counts toward the
# caller's self time.
UNWRAPPED = frozenset({
    "geometry.contains", "geometry.on_boundary", "geometry.lattice_length",
    "geometry.segment_lattice_points", "geometry.triangle_area2",
    "group.det", "group.mat_mul", "group.mat_apply", "group.mat_inverse",
    "io.format_rational", "io.parse_rational", "laplace.triangle_moment",
    "vspace.monomials", "vspace.predicted_dim", "laws.invariant_generators",
})

METHODS = {
    ("series", "Series2"): ("subst_linear", "__mul__", "__add__", "__sub__",
                            "__neg__", "mul_linear", "scalar_mul",
                            "scale_variables", "truncate",
                            "first_difference"),
    ("valuation", "Evaluator"): ("z_point", "z_segment", "z_polygon"),
}


def _subst_count(args):
    f, first, second = args[0], args[1], args[2]
    integral = all(v.denominator == 1 for v in (*first, *second))
    return [len(f.terms()), int(integral)]


def _mul_count(args):
    return len(args[0].terms()) * len(args[1].terms())


def _frame_key(args):
    return repr(args[0].m)


def _polygon_key(args):
    return repr((id(args[0]), args[1].key()))


def _segment_key(args):
    a, b = args[1], args[2]
    return repr((id(args[0]), tuple(sorted((tuple(a), tuple(b))))))


# Counters computed from a call's arguments (before) or result (after).
# The cache keys mirror the evaluator's own keys (canonical vertices,
# sorted endpoints, one cache per evaluator), so hit ratios are derived
# without reading the evaluator's private state.
BEFORE = {
    "series.Series2.subst_linear": _subst_count,
    "series.Series2.__mul__": _mul_count,
    "group.act_on_series": _frame_key,
    "valuation.Evaluator.z_polygon": _polygon_key,
    "valuation.Evaluator.z_segment": _segment_key,
}
AFTER = {
    "geometry.unimodular_triangulation": lambda result: len(result.triangles),
}


class SpanRecorder:
    """Collects nested spans; install() wraps, uninstall() restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.root_overhead = 0.0
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, before=None, after=None):
        clock, spans, stack = self.clock, self.spans, self._stack
        recorder = self

        def wrapper(*args, **kwargs):
            c0 = clock()
            extra = before(args) if before is not None else None
            parent = stack[-1] if stack else -1
            span = [name, parent, 0.0, 0.0, 0.0, extra]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                span[5] = after(result)
            spent = (span[2] - c0) + (clock() - span[3])
            if parent >= 0:
                spans[parent][4] += spent
            else:
                recorder.root_overhead += spent
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Wrap every traced callable at every module attribute binding it."""
        package = importlib.import_module("latval")
        modules = [importlib.import_module(f"latval.{m}") for m in MODULES]
        owners = [package] + modules
        for short, mod in zip(MODULES, modules):
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self.wrap(name, fn, BEFORE.get(name), AFTER.get(name))
                for owner in owners:
                    for a, v in list(vars(owner).items()):
                        if v is fn:
                            self._patch(owner, a, wrapper)
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(importlib.import_module(f"latval.{short}"), cls_name)
            for meth in methods:
                name = f"{short}.{cls_name}.{meth}"
                fn = vars(cls)[meth]
                self._patch(cls, meth, self.wrap(name, fn, BEFORE.get(name),
                                                 AFTER.get(name)))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path, wall_s):
        """Write the spans once, at the end of the traced phase."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"wall_s": wall_s, "root_overhead_s": self.root_overhead,
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics

# metric prefix -> span names it aggregates
GROUPS = {
    "series.subst_linear": ("series.Series2.subst_linear",),
    "series.mul": ("series.Series2.__mul__",),
    "series.mul_exp_linear": ("series.mul_exp_linear",),
    "series.exp_linear": ("series.exp_linear",),
    "series.add": ("series.Series2.__add__",),
    "series.divide": ("series.divide", "series.divide_unit", "series.divide_x",
                      "series.divide_y", "series.divide_x_minus_y"),
    "group.act_on_series": ("group.act_on_series",),
    "geometry.triangulate": ("geometry.unimodular_triangulation",),
    "geometry.split_pairs": ("geometry.split_pairs",),
    "valuation.z_polygon": ("valuation.Evaluator.z_polygon",),
    "valuation.z_segment": ("valuation.Evaluator.z_segment",),
    "valuation.z_point": ("valuation.Evaluator.z_point",),
    "valuation.build_triangle_data": ("valuation.build_triangle_data",),
    "laws.check_law": ("laws.check_law",),
    "laws.sharp": ("laws.sharp",),
    "laws.dagger": ("laws.dagger",),
    "laws.d4_decompose": ("laws.d4_decompose",),
    "vspace.vd_basis": ("vspace.vd_basis",),
    "vspace.st_basis": ("vspace.st_basis",),
    "linalg.rref": ("linalg.rref",),
    "laplace.laplace_plus": ("laplace.laplace_plus",),
    "io.load": ("io.load_json", "io.series2_from_obj", "io.series1_from_obj",
                "io.polygon_from_obj", "io.spec_from_obj",
                "io.affine_from_obj"),
    "io.dump": ("io.dumps", "io.series2_to_obj", "io.series1_to_obj",
                "io.polygon_to_obj", "io.spec_to_obj", "io.affine_to_obj"),
    "cli.main": None,   # every cli span
}

# (name, unit, better); counts repeat exactly between runs of one seed
PER_LAYER = [
    ("series.subst_linear.calls", "count", "lower"),
    ("series.subst_linear.self_s", "s", "lower"),
    ("series.subst_linear.terms_in", "count", "lower"),
    ("series.subst_linear.int_share", "ratio", "higher"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.mul.term_pairs", "count", "lower"),
    ("series.mul_exp_linear.calls", "count", "lower"),
    ("series.mul_exp_linear.total_s", "s", "lower"),
    ("series.exp_linear.self_s", "s", "lower"),
    ("series.add.calls", "count", "lower"),
    ("series.add.self_s", "s", "lower"),
    ("series.divide.calls", "count", "lower"),
    ("series.divide.self_s", "s", "lower"),
    ("group.act_on_series.calls", "count", "lower"),
    ("group.act_on_series.self_s", "s", "lower"),
    ("group.act_on_series.total_s", "s", "lower"),
    ("group.distinct_frames", "count", "lower"),
    ("group.frame_reuse", "ratio", "higher"),
    ("geometry.triangulate.calls", "count", "lower"),
    ("geometry.triangulate.total_s", "s", "lower"),
    ("geometry.triangles", "count", "lower"),
    ("geometry.split_pairs.total_s", "s", "lower"),
    ("valuation.z_polygon.calls", "count", "lower"),
    ("valuation.z_polygon.self_s", "s", "lower"),
    ("valuation.z_polygon.hit_ratio", "ratio", "higher"),
    ("valuation.z_segment.calls", "count", "lower"),
    ("valuation.z_segment.total_s", "s", "lower"),
    ("valuation.z_segment.hit_ratio", "ratio", "higher"),
    ("valuation.z_point.calls", "count", "lower"),
    ("valuation.build_triangle_data.total_s", "s", "lower"),
    ("laws.check_law.calls", "count", "lower"),
    ("laws.check_law.total_s", "s", "lower"),
    ("laws.sharp.total_s", "s", "lower"),
    ("laws.dagger.total_s", "s", "lower"),
    ("laws.d4_decompose.total_s", "s", "lower"),
    ("vspace.vd_basis.calls", "count", "lower"),
    ("vspace.vd_basis.self_s", "s", "lower"),
    ("vspace.st_basis.total_s", "s", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("laplace.laplace_plus.calls", "count", "lower"),
    ("laplace.laplace_plus.total_s", "s", "lower"),
    ("io.load.total_s", "s", "lower"),
    ("io.dump.total_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
] + [(f"{m}.self_s", "s", "lower") for m in MODULES] + [
    ("trace.wall_s", "s", "lower"),
    ("trace.unspanned_s", "s", "lower"),
    ("trace.recorder_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# metrics that must repeat exactly between traced runs of one seed
COUNTS = frozenset(name for name, unit, _ in PER_LAYER
                   if unit == "count" or name.endswith(("hit_ratio",
                                                        "int_share",
                                                        "frame_reuse")))


class TraceError(Exception):
    pass


def aggregate(trace):
    """Per-layer metrics of one traced phase (everything but the overhead
    ratio, which needs an untraced run)."""
    spans = trace["spans"]
    wall = trace["wall_s"]
    n = len(spans)
    child = [0.0] * n
    for name, parent, start, end, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_t = [end - start - child[i] - over
              for i, (_, _, start, end, over, _) in enumerate(spans)]
    root = sum(s[3] - s[2] for s in spans if s[1] < 0)
    recorder = trace["root_overhead_s"] + sum(s[4] for s in spans)
    unspanned = wall - root - trace["root_overhead_s"]
    eps = 1e-9 * max(1.0, wall)
    bad = [(s[0], t) for s, t in zip(spans, self_t) if t < -eps]
    if bad:
        raise TraceError(f"{len(bad)} spans have negative self time, "
                         f"first {bad[0][0]}: {bad[0][1]}")
    if root > wall + eps or unspanned < -eps:
        raise TraceError(f"top-level spans {root} s and recorder "
                         f"{trace['root_overhead_s']} s exceed wall {wall} s")
    out = {"trace.wall_s": wall, "trace.unspanned_s": unspanned,
           "trace.recorder_s": recorder}
    for m in MODULES:
        out[f"{m}.self_s"] = sum((t for s, t in zip(spans, self_t)
                                  if s[0].startswith(m + ".")), 0.0)

    for prefix, names in GROUPS.items():
        if names is None:
            names = {s[0] for s in spans if s[0].startswith("cli.")}
        names = set(names)
        # inside[i]: span i has an ancestor in this group
        inside = [False] * n
        calls, self_s, total_s = 0, 0.0, 0.0
        for i, (name, parent, start, end, _, _) in enumerate(spans):
            if parent >= 0:
                inside[i] = inside[parent] or spans[parent][0] in names
            if name in names:
                calls += 1
                self_s += self_t[i]
                if not inside[i]:
                    total_s += end - start
        out[f"{prefix}.calls"] = calls
        out[f"{prefix}.self_s"] = self_s
        out[f"{prefix}.total_s"] = total_s

    def extras(span_name):
        return [s[5] for s in spans if s[0] == span_name]

    subst = extras("series.Series2.subst_linear")
    out["series.subst_linear.terms_in"] = sum(e[0] for e in subst)
    out["series.subst_linear.int_share"] = (sum(e[1] for e in subst) / len(subst)
                                            if subst else 0.0)
    out["series.mul.term_pairs"] = sum(extras("series.Series2.__mul__"))
    frames = extras("group.act_on_series")
    out["group.distinct_frames"] = len(set(frames))
    out["group.frame_reuse"] = len(frames) / len(set(frames)) if frames else 0.0
    out["geometry.triangles"] = sum(extras("geometry.unimodular_triangulation"))
    for prefix, span_name in (("valuation.z_polygon", "valuation.Evaluator.z_polygon"),
                              ("valuation.z_segment", "valuation.Evaluator.z_segment")):
        keys = extras(span_name)
        out[f"{prefix}.hit_ratio"] = 1 - len(set(keys)) / len(keys) if keys else 0.0
    return out
