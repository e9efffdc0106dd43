"""Mutation check: each catalogued mutant of the source must fail a test.

    python tests/mutants.py

Each entry of MUTANTS is one change of source text in ``src/latval``: a
small fault in a series kernel that stores or reads the numerators by
total degree, in the Bernoulli numbers, in the triangulation and the
lattice point walk, in the faces that the evaluator sums (a triangle's
sides on the boundary, the sign of an interior point, the unimodularity
check), in the bound of a cache or the equality of the specs that key
one, in the Laplace oracle, in the sides of a law, in the laws that check
D4 invariance or the substitution that checks f0gl2z, in the sharp
transform, or in a bound on input.  The runner copies ``src/`` into a
temporary directory, applies the change there, and runs ``pytest -x`` on the entry's test node ids alone, with
``PYTHONPATH`` at the copy; ``bench/tests`` is never collected, since its
``conftest.py`` puts the checkout's own ``src`` first.  A mutant is killed when a test
fails, or when the run passes LIMIT_S seconds (reported as a timeout).
The tests are first run once on the unchanged copy, which must pass.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when
the catalogue is stale (a text not found exactly once, or a test run that
neither passes nor fails) or the unchanged copy fails its tests.  Only the
standard library is used here; the tests need pytest and hypothesis.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIMIT_S = 60

# (name, file under src/latval, text, its replacement, test node ids)
MUTANTS = [
    ("unpack: no offset in the higher digits", "series.py",
     "offset = (offset << k) | half", "offset = offset << k",
     ["test_series.py::test_mul_matches_fraction_double_loop"]),
    ("unpack: weights dropped", "series.py",
     "row[i] = s * m", "row[i] = s",
     ["test_series.py::test_subst_linear_rational"]),
    ("trailing zero rows kept", "series.py",
     "while rows and not any(rows[-1]):", "while rows and not rows[-1]:",
     ["test_series.py::test_kernel_results_pass_the_constructor"]),
    ("plus: the longer operand's rows not scaled", "series.py",
     "rows += _times(a[len(b):], repeat(ma))",
     "rows += a[len(b):]",
     ["test_series.py::test_sum_matches_fraction_sum"]),
    ("plus: operands swapped without their multipliers", "series.py",
     "a, b, ma, mb = b, a, mb, ma", "a, b = b, a",
     ["test_series.py::test_sum_matches_fraction_sum"]),
    ("first_difference: equal numerators over unequal denominators",
     "series.py", "if r != u or da != db:", "if r != u:",
     ["test_series.py::test_eq_up_to_common_order"]),
    ("first_difference: rows beyond the shorter series unread",
     "series.py", "zip_longest(a, b, fillvalue=[0] * (n + 1))", "zip(a, b)",
     ["test_series.py::test_first_difference_matches_sorted_scan"]),
    ("mul_linear: the two copies exchanged", "series.py",
     "[A * s + B * t for s, t in zip(row, row[1:])]",
     "[A * t + B * s for s, t in zip(row, row[1:])]",
     ["test_series.py::test_mul_linear_matches_fraction_loop"]),
    ("divide_linear: quotient rows of a swapped read not turned back",
     "series.py", "out.append(quot[::-1] if swap else quot)",
     "out.append(quot)",
     ["test_series.py::test_divide_x_y"]),
    ("packed_cells: the d! of each row left out", "series.py",
     "scaled = [(f._den, _times(f._rows, fact)) for f in fs]",
     "scaled = [(f._den, f._rows) for f in fs]",
     ["test_series.py::test_mul_exp_linear_inverse"]),
    ("packed cell: power tables of y too short", "series.py",
     "top2 = max(top2, d - nums[0][0])", "top2 = max(top2, d - nums[-1][0])",
     ["test_series.py::test_divided_diff_exp"]),
    ("exponent check: a negative y exponent passes", "series.py",
     "p >= 0 and q >= 0", "p >= 0",
     ["test_series.py::test_exponents_must_be_ints_at_least_0"]),
    ("bernoulli: B_0 = 0", "series.py",
     "_BERNOULLI = [Q(1)]", "_BERNOULLI = [Q(0)]",
     ["test_series.py::test_bernoulli"]),
    ("sweep: the lower chain pops collinear points", "geometry.py",
     "_cross(lower[-2], lower[-1], p) < 0",
     "_cross(lower[-2], lower[-1], p) <= 0",
     ["test_geometry.py::test_triangulation_invariants"]),
    ("sweep: the upper chain pops collinear points", "geometry.py",
     "_cross(upper[-2], upper[-1], p) > 0",
     "_cross(upper[-2], upper[-1], p) >= 0",
     ["test_geometry.py::test_triangulation_invariants"]),
    ("lattice points: the mirror's points not sorted back", "geometry.py",
     "sorted((x, y) for y, x in _columns(mirror))",
     "[(x, y) for y, x in _columns(mirror)]",
     ["test_geometry.py::test_lattice_points_of_a_wide_polygon"]),
    ("shorter span: the longer one", "geometry.py",
     "return min(max(c) - min(c)", "return max(max(c) - min(c)",
     ["test_cli.py::test_wide_polygon_is_walked_along_its_shorter_side"]),
    ("chord: the union of the boundaries", "geometry.py",
     "& set(boundary_lattice_points(P2))",
     "| set(boundary_lattice_points(P2))",
     ["test_geometry.py::test_split_pairs"]),
    ("faces: a boundary side matched in one orientation only",
     "valuation.py",
     "set(zip(b, b[1:] + b[:1])) | set(zip(b[1:] + b[:1], b))",
     "set(zip(b, b[1:] + b[:1]))",
     ["test_valuation.py::test_z_mT_closed_matches_polygon_evaluation"]),
    ("faces: the mask bits negated", "valuation.py",
     "if side in boundary", "if side not in boundary",
     ["test_valuation.py::"
      "test_faces_are_one_per_triangle_and_interior_point"]),
    ("faces: the two sides at the anchor swapped", "valuation.py",
     "sides = ((v, p1), (v, p2), (p1, p2))",
     "sides = ((v, p2), (v, p1), (p1, p2))",
     ["test_valuation.py::test_z_mT_closed_matches_polygon_evaluation"]),
    ("faces: a polygon's interior points given -c", "valuation.py",
     "tri.interior_vertices, _C", "tri.interior_vertices, _MINUS_C",
     ["test_valuation.py::test_z_mT_closed_matches_polygon_evaluation"]),
    ("faces: only degenerate triangles rejected", "valuation.py",
     "if abs(d) != 1:", "if d == 0:",
     ["test_valuation.py::test_non_unimodular_triangle_is_rejected"]),
    ("anchored: the vertices before the anchor dropped", "valuation.py",
     "out.append(cell[i:] + cell[:i])", "out.append(cell[i:])",
     ["test_valuation.py::test_z_polygon_constant_terms"]),
    ("dilative: the --m factors unbounded", "cli.py",
     '_in_range("the --m factor", max(m_list), 2)', "None",
     ["test_cli.py::test_dilative_m_beyond_the_limit_exits_3"]),
    ("spec: a rho of order 0 accepted", "valuation.py",
     "if self.rho.order < 1:", "if self.rho.order < 0:",
     ["test_cli.py::test_rho_of_order_0_exits_3"]),
    ("spec: equality by c alone", "valuation.py",
     "self.key() == other.key()", "self.c == other.c",
     ["test_valuation.py::test_equal_specs_share_one_evaluator"]),
    ("evaluators: no bound", "valuation.py",
     "@lru_cache(maxsize=EVALUATORS_MAX)", "@lru_cache(maxsize=None)",
     ["test_valuation.py::test_evaluator_registry_is_bounded"]),
    ("an evaluator's values: no bound", "valuation.py",
     "lru_cache(maxsize=FACES_MAX)", "lru_cache(maxsize=None)",
     ["test_valuation.py::test_evaluator_face_caches_are_bounded"]),
    ("degree records: no bound", "vspace.py",
     "@lru_cache(maxsize=DEGREES_MAX)", "@lru_cache(maxsize=None)",
     ["test_vspace.py::"
      "test_degree_cache_is_bounded_and_solves_again_after_eviction"]),
    ("laplace: degree k over (k + 1)!", "laplace.py",
     "den = factorial(k + 2)", "den = factorial(k + 1)",
     ["test_laplace.py::test_laplace_plus_T_coefficients"]),
    ("law Aprime: the factor x + y read as x + 2y", "laws.py",
     "f.subst_linear(x, (-1, 1)).mul_linear(1, 1),",
     "f.subst_linear(x, (-1, 1)).mul_linear(1, 2),",
     ["test_vspace.py::test_dims_table_matches_prediction_to_30"]),
    ("law E: the substitution x -> -2x - y read as 2x - y", "laws.py",
     "return f.subst_linear(x, (-2, -1)), f",
     "return f.subst_linear(x, (2, -1)), f",
     ["test_laws.py::"
      "test_d4_generators_act_as_the_substitutions_of_their_laws"]),
    ("D4 laws: rho_sym3 left out", "laws.py",
     'D4_LAWS = ("rho_sym3", "E")', 'D4_LAWS = ("E",)',
     ["test_laws.py::test_d4_decompose_rejects_non_invariant"]),
    ("f0gl2z: each generator substituted transposed", "laws.py",
     "f.subst_linear((a, c), (b, d))", "f.subst_linear((a, b), (c, d))",
     ["test_laws.py::test_f0gl2z_equals_the_report_through_the_action"]),
    ("sharp: B(x + y) read as B(x)", "laws.py",
     "bxy = bern.subst_linear((1, 1), (0, 0))",
     "bxy = bern.subst_linear((1, 0), (0, 0))",
     ["test_laws.py::test_round_trip_dagger_sharp"]),
]


def run_tests(src: str, tests) -> tuple:
    """(outcome, seconds, output) of pytest -x on the tests against the
    copy src: outcome "passed", "failed", "timeout" or "error"."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *sorted({os.path.join("tests", t) for t in tests})]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        return "timeout", time.monotonic() - start, ""
    outcome = {0: "passed", 1: "failed"}.get(proc.returncode, "error")
    return outcome, time.monotonic() - start, proc.stdout + proc.stderr


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = os.path.join(tmp, "clean")
        shutil.copytree(os.path.join(ROOT, "src"), clean,
                        ignore=shutil.ignore_patterns("__pycache__"))
        outcome, spent, output = run_tests(
            clean, [t for *_, tests in MUTANTS for t in tests])
        print(f"unchanged source: {outcome} ({spent:.1f} s)")
        if outcome != "passed":
            print(output[-3000:])
            return 2
        survivors, stale = [], []
        for name, path, text, replacement, tests in MUTANTS:
            src = os.path.join(tmp, "mutant")
            shutil.rmtree(src, ignore_errors=True)
            shutil.copytree(clean, src)
            target = os.path.join(src, "latval", path)
            with open(target, encoding="utf-8") as fh:
                source = fh.read()
            if source.count(text) != 1:
                print(f"STALE     {name}: {text!r} occurs "
                      f"{source.count(text)} times in {path}")
                stale.append(name)
                continue
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(source.replace(text, replacement))
            outcome, spent, output = run_tests(src, tests)
            label = {"failed": "killed", "timeout": "killed (timeout)",
                     "passed": "SURVIVED", "error": "ERROR"}[outcome]
            print(f"{label:9s} {name} ({spent:.1f} s)")
            if outcome == "passed":
                survivors.append(name)
            elif outcome == "error":
                print(output[-3000:])
                stale.append(name)
    print(f"{len(MUTANTS) - len(survivors) - len(stale)} of {len(MUTANTS)} "
          f"mutants killed")
    if stale:
        return 2
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
