"""Mutation check: each catalogued mutant of the source must fail a test.

    python tests/mutants.py

Each entry of MUTANTS is one change of source text in ``src/latval``: a
small fault in a series kernel that stores or reads the numerators by
total degree, in the Horner substitution (its jump over a run of zeros
and its last step), the degree its images are summed into or the bound
on its width, in the streaming Taylor shift, in the Bernoulli numbers,
in the triangulation and the lattice point walk, in the faces that the
evaluator sums (a triangle's sides on the boundary, the sign of an
interior point, the unimodularity check) or the cells that its equal
values share, in the bound of a cache or the equality of the specs that
key one, in the cache of spec files or the coefficient and exponent
texts of the writer, in the Laplace oracle (the degree scale or the
weight of a fan triangle), in the packed forms that the solution spaces
are solved on (the width each residual is read back at) or in the
elimination that solves them (the pivot row), in the sides of a law,
the packed tables that check_law compares, the denominator each of
their degrees is over (moved up by a linear factor, times d! by a twist,
met over the lcm of two sides, read back in a report), or the degree at
which it stops, in the laws that check D4 invariance,
the substitution that checks f0gl2z, the leading-term reduction of
``d4_decompose`` or its inverse ``d4_compose``, in the sharp and dagger
transforms or the change to (s, t), in the affine unimodular group (its
determinant check, the order of compose, the edge vectors of its action
on series), or in a bound on input (each limit of ``io`` and ``cli``
moved by one).

The runner imports pytest and hypothesis once, and never latval.  It
copies ``src/`` into a temporary directory, applies the change there,
and forks a child, which puts the copy first on ``sys.path`` and runs
``pytest.main`` with ``-x`` on the entry's test node ids alone, writing
its output to a file; ``bench/tests`` is never collected, since its
``conftest.py`` puts the checkout's own ``src`` first.  A mutant is
killed when a test fails, or when the child runs past LIMIT_S seconds
and is killed (reported as a timeout).  The tests are first run once on
the unchanged copy, which must pass.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when
the catalogue is stale (a text not found exactly once, or a test run that
neither passes nor fails) or the unchanged copy fails its tests.  The
runner needs ``os.fork``, pytest and hypothesis.
"""

import os
import shutil
import signal
import sys
import tempfile
import time

import hypothesis  # noqa: F401  imported once, before the children fork
import pytest

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
    ("image sum: a translation's images added one degree up", "series.py",
     "sums[d] += _horner(row, steps, others)",
     "sums[min(d + 1, n)] += _horner(row, steps, others)",
     ["test_series.py::test_mul_exp_linear_inverse"]),
    ("horner: the jump over a zero run dropped", "series.py",
     "h = h * steps[g] + row[p] * others[d - p]",
     "h = h * steps[min(g, 1)] + row[p] * others[d - p]",
     ["test_series.py::test_subst_linear_matches_fraction_expansion"]),
    ("horner: the last step one power of U short", "series.py",
     "return h * steps[ps[0]]", "return h * steps[max(ps[0] - 1, 0)]",
     ["test_series.py::test_subst_linear_matches_fraction_expansion"]),
    ("image bits: the bound one factor l short", "series.py",
     "bits + ((n + 1) * ell ** n).bit_length()",
     "bits + ((n + 1) * ell ** max(n - 1, 0)).bit_length()",
     ["test_series.py::test_kernels_at_the_width_edge"]),
    ("sum_of_products: a pair's factor left out", "series.py",
     "h *= m", "h *= 1",
     ["test_series.py::test_sum_of_products_matches_fraction_double_loops"]),
    ("exponent check: a negative y exponent passes", "series.py",
     "p >= 0 and q >= 0", "p >= 0",
     ["test_series.py::test_exponents_must_be_ints_at_least_0"]),
    ("twist: the Pascal column written after the product", "series.py",
     "            col[j] = acc\n            acc += w * old",
     "            acc += w * old\n            col[j] = acc",
     ["test_series.py::test_taylor_shift_streams_the_passes"]),
    ("bernoulli: B_0 = 0", "series.py",
     "out = [Q(1), Q(-1, 2)]", "out = [Q(0), Q(-1, 2)]",
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
    ("limits: a number of exactly 4300 digits taken", "io.py",
     ">= _TOO_LONG", "> _TOO_LONG",
     ["test_cli.py::test_malformed_json_values_exit_3"
      "[term-denominator-too-long]"]),
    ("limits: a series order at MAX_ORDER refused", "io.py",
     "if order > MAX_ORDER:", "if order >= MAX_ORDER:",
     ["test_cli.py::test_order_above_the_limit_exits_3"]),
    ("limits: a polygon of MAX_LATTICE_POINTS points refused", "io.py",
     "if n > MAX_LATTICE_POINTS:", "if n >= MAX_LATTICE_POINTS:",
     ["test_cli.py::test_polygons_at_the_lattice_point_limits_are_accepted"]),
    ("limits: a polygon spanning MAX_LATTICE_POINTS lines refused", "io.py",
     "lines > MAX_LATTICE_POINTS", "lines >= MAX_LATTICE_POINTS",
     ["test_cli.py::test_polygons_at_the_lattice_point_limits_are_accepted"]),
    ("limits: a value at its maximum refused", "cli.py",
     "if value > maximum:", "if value >= maximum:",
     ["test_cli.py::test_dilative_m_beyond_the_limit_exits_3"]),
    ("limits: a value at its minimum refused", "cli.py",
     "if value < minimum:", "if value <= minimum:",
     ["test_golden.py::test_golden_output[vd_basis_xy_0]"]),
    ("limits: laplace's order times bits at MAX_LAPLACE_BITS refused",
     "cli.py", "order * far.bit_length() > io.MAX_LAPLACE_BITS",
     "order * far.bit_length() >= io.MAX_LAPLACE_BITS",
     ["test_cli.py::test_laplace_far_coordinates_exit_3"]),
    ("dilative: the --m factors unbounded", "cli.py",
     '_in_range("the --m factor", max(m_list), 2)', "None",
     ["test_cli.py::test_dilative_m_beyond_the_limit_exits_3"]),
    ("spec: a rho of order 0 accepted", "valuation.py",
     "if self.rho.order < 1:", "if self.rho.order < 0:",
     ["test_cli.py::test_rho_of_order_0_exits_3"]),
    ("spec: equality by c alone", "valuation.py",
     "self._key == other._key", "self.c == other.c",
     ["test_valuation.py::test_equal_specs_share_one_evaluator"]),
    ("spec files: the cache keyed by the path alone", "io.py",
     "return _load(path, _spec_of_text)",
     "return vars(_spec_of_text).setdefault(path, "
     "_load(path, _spec_of_text))",
     ["test_cli.py::test_an_edited_spec_file_is_read_again"]),
    ("coefficient texts: the gcd dropped", "series.py",
     "g = gcd(s, den)", "g = 1",
     ["test_cli.py::test_coefficient_texts_are_format_rational_of_terms"]),
    ("term texts: p and q swapped", "io.py",
     "{i4}{p},{i4}{d - p}{i3}", "{i4}{d - p},{i4}{p}{i3}",
     ["test_cli.py::test_dumps_equals_json_dumps_indent_2"]),
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
    ("laplace: each fan triangle weighted 1, not its twice-area",
     "laplace.py", "h = [[a]]", "h = [[1]]",
     ["test_laplace.py::test_laplace_plus_matches_green_formula",
      "test_laplace.py::test_moments_match_green_formula"]),
    ("forms: (x + y)^(2j) read as (x + y)^j", "vspace.py",
     "((1, 1), 2 * j)", "((1, 1), j)",
     ["test_vspace.py::test_vd_basis_equals_the_monomial_solve"]),
    ("forms: each residual read back one bit short", "vspace.py",
     "res.rows(max(res.bounds).bit_length() + 1)",
     "res.rows(max(res.bounds).bit_length())",
     ["test_vspace.py::"
      "test_constraint_rows_of_stacked_laws_equal_the_series_rows"]),
    ("echelon: the pivot row not swapped into place", "linalg.py",
     "m[r], m[pr] = m[pr], m[r]", "m[r], m[pr] = m[r], m[pr]",
     ["test_golden.py::test_golden_output[vd_dims_64]"]),
    ("echelon: the pivot read from the row it was found in", "linalg.py",
     "prow = m[r]", "prow = m[pr]",
     ["test_golden.py::test_golden_output[vd_dims_64]"]),
    ("evaluator: the shared cells matched to the wrong values",
     "valuation.py", "cell = dict(zip(distinct, cells))",
     "cell = dict(zip(distinct, cells[::-1]))",
     ["test_valuation.py::"
      "test_equal_values_are_packed_once_and_keep_their_keys"]),
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
    ("d4_compose: the factor 1/2^i dropped", "laws.py",
     "v * comb(i, l) / 2 ** i", "v * comb(i, l)",
     ["test_laws.py::test_d4_compose_equals_the_generator_powers"]),
    ("d4_compose: T's exponent i - l + j read as i - l", "laws.py",
     "2 * (i - l + j))", "2 * (i - l))",
     ["test_laws.py::test_d4_compose_equals_the_generator_powers"]),
    ("d4_decompose: comb(i, l) off by one", "laws.py",
     "c * comb(i, l)", "c * comb(i, l + 1)",
     ["test_laws.py::test_d4_decompose_round_trip"]),
    ("d4_decompose: the factor 2^(m - 2j) dropped", "laws.py",
     "out[(i, j)] = c << i", "out[(i, j)] = c",
     ["test_laws.py::test_d4_decompose_round_trip"]),
    ("sharp: B(x + y) read as B(x)", "laws.py",
     ".subst_linear((1, 0), (1, 1))\n", ".subst_linear((1, 0), (1, 0))\n",
     ["test_laws.py::test_round_trip_dagger_sharp"]),
    ("sharp: the twisted face moved by (0, 1), not (1, 0)", "laws.py",
     "(cell, (1, 0), (0, 1), (1, 1))", "(cell, (0, 1), (0, 1), (1, 1))",
     ["test_laws.py::test_round_trip_dagger_sharp"]),
    ("law Bprime: the difference on the right read as a sum", "laws.py",
     "x, (-1, 1)).mul_linear(1, -1),\n"
     "                f.subst_linear(y, (-1, 0)).mul_linear(1, 0)\n"
     "                - f.subst_linear(x, (0, -1))",
     "x, (-1, 1)).mul_linear(1, -1),\n"
     "                f.subst_linear(y, (-1, 0)).mul_linear(1, 0)\n"
     "                + f.subst_linear(x, (0, -1))",
     ["test_laws.py::test_rho_laws_on_basis_elements"]),
    ("to_st: x = (s - t)/2 read as s - t/2", "laws.py",
     "rho.subst_linear((Q(1, 2), Q(-1, 2)), (0, 1))",
     "rho.subst_linear((1, Q(-1, 2)), (0, 1))",
     ["test_laws.py::test_to_st_sends_solutions_to_Adoubleprime"]),
    ("check_law: the packed sides compared one degree short", "laws.py",
     "for d, (g, h) in enumerate(zip(lhs.pack(k), rhs.pack(k))):",
     "for d, (g, h, _) in enumerate(zip(lhs.pack(k), rhs.pack(k),\n"
     "            range(min(lhs.order, rhs.order)))):",
     ["test_laws.py::test_check_law_equals_the_series_route[B]"]),
    ("check_law: the first difference counted from degree 1", "laws.py",
     "enumerate(zip(lhs.pack(k), rhs.pack(k)))",
     "enumerate(zip(lhs.pack(k), rhs.pack(k)), 1)",
     ["test_laws.py::"
      "test_a_violated_law_computes_nothing_above_its_first_difference[E]"]),
    ("check_law: a twisted side packed whole before its first degree",
     "laws.py", "_taylor_shift(map(mul, t.pack(k), fact),",
     "_taylor_shift(list(map(mul, t.pack(k), fact)),",
     ["test_laws.py::"
      "test_a_violated_law_computes_nothing_above_its_first_difference[A]"]),
    ("check_law: a twist over dens[0] * d!, not over the lcm", "laws.py",
     "den = lcm(*set(self.dens))", "den = self.dens[0]",
     ["test_laws.py::test_tables_follow_the_series_kernels_beyond_law_sides"
      "[factor and twist]"]),
    ("check_law: the sides read back from each other", "laws.py",
     "for x in (g, h))", "for x in (h, g))",
     ["test_laws.py::test_check_law_equals_the_series_route[B]"]),
    ("check_law: a linear factor leaves the denominators unshifted",
     "laws.py", "[1] + self.dens", "self.dens + [1]",
     ["test_laws.py::test_tables_follow_the_series_kernels_beyond_law_sides"
      "[factor and substitution]"]),
    ("check_law: two tables met over one side's denominators", "laws.py",
     "return lhs.over(dens), rhs.over(dens)",
     "return lhs.over(lhs.dens[:len(dens)]), "
     "rhs.over(lhs.dens[:len(dens)])",
     ["test_laws.py::test_tables_follow_the_series_kernels_beyond_law_sides"
      "[factor and substitution]"]),
    ("check_law: a report read over the denominator of degree 0",
     "laws.py", "w = lhs.dens[d]", "w = lhs.dens[0]",
     ["test_laws.py::"
      "test_a_violated_law_computes_nothing_above_its_first_difference[E]"]),
    ("check_law: no degree kept over its own denominator", "laws.py",
     "law_sides(law, _Table.of(f, own=True))",
     "law_sides(law, _Table.of(f))",
     ["test_laws.py::"
      "test_graded_law_width_follows_the_degrees_own_denominators"]),
    ("group: a determinant of -1 refused", "group.py",
     "if abs(det(self.m)) != 1:", "if det(self.m) != 1:",
     ["test_group.py::test_compose_and_inverse"]),
    ("group: compose multiplies the matrices the other way round",
     "group.py", "AffineUnimodular(mat_mul(self.m, other.m),",
     "AffineUnimodular(mat_mul(other.m, self.m),",
     ["test_group.py::test_compose_and_inverse"]),
    ("group: act_on_series with its edge vectors transposed", "group.py",
     "(a, c), (b, d))], f.order, den)", "(a, b), (c, d))], f.order, den)",
     ["test_group.py::test_action_substitution_convention"]),
    ("dagger: the bracket divided by x, not y", "laws.py",
     "return divide_linear(bracket, 0, 1)",
     "return divide_linear(bracket, 1, 0)",
     ["test_laws.py::test_dagger_of_constant_one"]),
]


def run_tests(src: str, tests, log: str) -> tuple:
    """(outcome, seconds, output) of pytest -x on the tests against the
    copy src, in a forked child: outcome "passed", "failed", "timeout" or
    "error".  The child writes pytest's output to the file log."""
    start = time.monotonic()
    sys.stdout.flush()   # else the child would write the parent's buffer
    with open(log, "w", encoding="utf-8") as fh:
        pid = os.fork()
        if pid == 0:
            code = 3
            try:
                os.setpgid(0, 0)
                os.chdir(ROOT)
                os.dup2(fh.fileno(), 1)
                os.dup2(fh.fileno(), 2)
                sys.path.insert(0, src)
                sys.dont_write_bytecode = True
                # hypothesis, imported already, cannot be rewritten
                code = pytest.main(
                    ["-x", "-q", "-p", "no:cacheprovider",
                     "-W", "ignore::pytest.PytestAssertRewriteWarning",
                     *sorted({os.path.join("tests", t) for t in tests})])
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(int(code))
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() - start > LIMIT_S:
            os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return "timeout", time.monotonic() - start, ""
        time.sleep(0.02)
    with open(log, encoding="utf-8") as fh:
        output = fh.read()
    outcome = {0: "passed", 1: "failed"}.get(os.waitstatus_to_exitcode(status),
                                            "error")
    return outcome, time.monotonic() - start, output


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = os.path.join(tmp, "clean")
        shutil.copytree(os.path.join(ROOT, "src"), clean,
                        ignore=shutil.ignore_patterns("__pycache__"))
        log = os.path.join(tmp, "pytest.log")
        outcome, spent, output = run_tests(
            clean, [t for *_, tests in MUTANTS for t in tests], log)
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
            outcome, spent, output = run_tests(src, tests, log)
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
