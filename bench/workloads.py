"""The three benchmark workloads.

Each ``build_*`` function makes one round of operations (ops) from a seed
and returns them as ``Op`` records.  It does the set-up a user of the
library would do before the first op: it generates the inputs, builds the
specs (which checks rho against its laws) and warms
``valuation.evaluator_for``.  Ops run one after another in one thread; each
starts when the previous one returns (a closed loop with one client).

Why each workload exists:

evaluate
    The path users take: ``latval evaluate`` through ``cli.main`` on seeded
    convex lattice polygons of two to six triangles plus the dilated
    fundamental triangle 4T, under the simple spec (0, 0, rho=1)
    and the general spec (1, cosh-type, rho=-1) at order 12.
    Triangulation, group action and translation all scale with area, and a
    large polygon's triangles share few frames, so frame grouping, the
    integer substitution kernel, an incremental hull and area-independent
    evaluation all show here.  There is little cache reuse.
verify
    The traffic of the acceptance criteria on the valuation axiom,
    equivariance and the Laplace cross-check: small seeded polygons under
    the five acceptance spec families.  ``Series2.subst_linear`` dominates
    it and the evaluator's polygon and segment caches are reused (the
    polygon value is shared by its split check, its equivariance check and
    its Laplace check).  Each polygon has few triangles per frame, so frame
    grouping should barely move it, while the substitution kernel and
    cache bounding should.
algebra
    Dense seeded series of orders 12 to 20 through the transforms, the
    law checks, the (s, t) picture, the D4 decomposition and the
    solution-space bases.  No geometry, no group action on polygons and no
    evaluator: dense products, unit division, substitution by rational
    matrices and ``linalg.rref`` do the work.  A change to the evaluation
    path must show no change here, and a series-kernel change that slows
    dense products or non-integer matrices shows up as a regression.

Every op carries a ``finish`` callable, run after the timed phase, that
returns the digest of the op's output and whether the output passed a
check of its own: a round trip, a known law status, a known decomposition,
a predicted dimension, the Laplace oracle at low order or the Euler
characteristic.  ``run.py`` also compares the digests between repetitions
and with the stored references.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import generators as gen
from latval import (cli, geometry, group, io, laplace, laws, series,
                    valuation, vspace)

ORDER = 12
# triangle counts of the random evaluate polygons, fixed so that every seed
# does the same work; many small polygons, most of them near the middle of
# the range, so that the median and the tail latency are taken over many
# shapes and move little between seeds
EVALUATE_SIZES = (2, 3, 3, 4, 4, 5, 5, 6) * 6
# the dilated fundamental triangle mT, the same for every seed and the
# largest op
EVALUATE_DILATION = 4
# triangle counts of the verify polygons of each spec
VERIFY_SIZES = (2, 3, 4) * 4
VERIFY_MAX_POINTS = 12
ALGEBRA_ORDERS = (12, 16, 20)
ALGEBRA_LAW_ORDER = 14
ALGEBRA_BASIS_DEGREES = (10, 20, 30)
# order up to which simple-spec evaluate results are checked against the
# Laplace moment oracle on every seed (the reference digests cover all of
# the output for the seeds they were made for)
LAPLACE_CHECK_ORDER = 4


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    finish: Callable[[object], tuple]   # output -> (digest, check passed)
    triangles: int = 0                  # triangles of the polygons it evaluates
    # a costlier independent check, run only when references are made
    oracle: Callable[[object], bool] | None = None


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _series_finisher(expected):
    def finish(result):
        return (digest_text(io.dumps(io.series2_to_obj(result))),
                result.eq_up_to(expected))
    return finish


def _acceptance_specs(order):
    """Laplace, vd degree 4, vd degree 6, odd b_1 and the general spec."""
    S = valuation.ValuationSpec
    specs = [("laplace", S(0, None, series.Series2.constant(1, order), order))]
    for d in (4, 6):
        rho = vspace.from_coefficients(vspace.vd_basis(d).vectors[0], d, order)
        specs.append((f"vd{d}", S(0, None, rho, order)))
    specs.append(("odd1", S(0, valuation.odd_basis_g(1, order), None, order)))
    specs.append(("general", S(1, valuation.cosh_type_g(order),
                               series.Series2.constant(-1, order), order)))
    return specs


# ---------------------------------------------------------------------------
# evaluate


def build_evaluate(seed: int, workdir: str, small: bool = False):
    rng = random.Random(f"evaluate/{seed}")
    sizes = EVALUATE_SIZES[:3] if small else EVALUATE_SIZES
    m = 2 if small else EVALUATE_DILATION
    polygons = [gen.random_polygon(rng, t) for t in sizes]
    polygons.append([(0, 0), (m, 0), (0, m)])

    specs = {
        "simple": valuation.ValuationSpec(
            0, None, series.Series2.constant(1, ORDER), ORDER),
        "general": valuation.ValuationSpec(
            1, valuation.cosh_type_g(ORDER),
            series.Series2.constant(-1, ORDER), ORDER),
    }
    spec_paths = {}
    for name, spec in specs.items():
        valuation.evaluator_for(spec)
        spec_paths[name] = os.path.join(workdir, f"spec-{name}.json")
        with open(spec_paths[name], "w", encoding="utf-8") as fh:
            fh.write(io.dumps(io.spec_to_obj(spec)))

    ops = []
    for i, verts in enumerate(polygons):
        poly_path = os.path.join(workdir, f"polygon-{i}.json")
        with open(poly_path, "w", encoding="utf-8") as fh:
            json.dump({"vertices": [list(v) for v in verts]}, fh)
        triangles = gen.area2(verts)
        for name in specs:
            out = os.path.join(workdir, f"out-{i}-{name}.json")
            argv = ["evaluate", "--spec", spec_paths[name],
                    "--polygon", poly_path, "--out", out]
            ops.append(Op(f"evaluate {name} P{i} ({triangles} triangles)",
                          lambda argv=argv: cli.main(argv),
                          _evaluate_finisher(name, verts, out),
                          triangles,
                          _laplace_oracle(verts, out) if name == "simple"
                          else None))
    return ops


def _evaluate_finisher(spec_name, verts, out_path):
    def finish(code):
        if code != 0:
            return None, False
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        z = io.series2_from_obj(json.loads(text))
        if spec_name == "simple":
            # the simple spec's value is the positive Laplace transform
            ok = z.eq_up_to(laplace.laplace_plus(geometry.hull_normalize(verts),
                                                 LAPLACE_CHECK_ORDER))
        else:
            # the general spec's constant term is the Euler characteristic
            ok = z.constant_term() == 1
        return digest_text(text), ok and z.order == ORDER - 1
    return finish


def _laplace_oracle(verts, out_path):
    def oracle(code):
        with open(out_path, encoding="utf-8") as fh:
            z = io.series2_from_obj(json.load(fh))
        return z.eq_up_to(laplace.laplace_plus(geometry.hull_normalize(verts),
                                               z.order))
    return oracle


# ---------------------------------------------------------------------------
# verify


def _bool_finish(result):
    return digest_text(json.dumps(bool(result))), result is True


def build_verify(seed: int, workdir: str, small: bool = False):
    rng = random.Random(f"verify/{seed}")
    sizes = VERIFY_SIZES[:2] if small else VERIFY_SIZES
    specs = _acceptance_specs(ORDER)
    if small:
        specs = specs[:1] + specs[-1:]
    for _, spec in specs:
        valuation.evaluator_for(spec)

    ops = []
    # every spec gets its own polygons and maps, so that the round's work
    # averages over many shapes
    for name, spec in specs:
        for i, t in enumerate(sizes):
            # four boundary points or more: the polygon has a chord
            verts = gen.random_polygon(rng, t, VERIFY_MAX_POINTS)
            while gen.boundary_points(verts) < 4:
                verts = gen.random_polygon(rng, t, VERIFY_MAX_POINTS)
            # the chord comes from the polygon alone; the op looks it up
            # among the library's splits, as a user of split_pairs would
            chord = gen.random_chord(rng, verts)
            P = geometry.hull_normalize(verts)
            xi = group.AffineUnimodular(*gen.random_unimodular(rng))
            ops.append(Op(f"axiom {name} P{i} chord {chord}",
                          lambda spec=spec, P=P, chord=chord:
                              _axiom(spec, P, chord),
                          _bool_finish, 2 * t))
            ops.append(Op(f"equivariance {name} P{i}",
                          lambda spec=spec, P=P, xi=xi:
                              _equivariance(spec, P, xi),
                          _bool_finish, 2 * t))
            if name == "laplace":
                ops.append(Op(f"laplace oracle P{i}",
                              lambda spec=spec, P=P: _oracle(spec, P),
                              _bool_finish, 2 * t))
    return ops


def _axiom(spec, P, ends):
    ev = valuation.evaluator_for(spec)
    # the halves of a split share exactly the chord's endpoints as vertices
    P1, P2 = next((P1, P2) for P1, P2 in geometry.split_pairs(P)
                  if set(ends) <= set(P1.vertices) & set(P2.vertices))
    chord = geometry.chord_of_split(P1, P2)
    if tuple(sorted(chord.vertices)) != ends:
        raise AssertionError(f"split has chord {chord.vertices}, not {ends}")
    whole = ev.z_polygon(P)
    parts = ev.z_polygon(P1) + ev.z_polygon(P2) - ev.z_segment(*chord.vertices)
    return whole.first_difference(parts) is None


def _equivariance(spec, P, xi):
    ev = valuation.evaluator_for(spec)
    lhs = ev.z_polygon(group.act_on_polygon(xi, P))
    rhs = group.act_on_series(xi, ev.z_polygon(P))
    return lhs.first_difference(rhs) is None


def _oracle(spec, P):
    ev = valuation.evaluator_for(spec)
    z = ev.z_polygon(P)
    return z.first_difference(laplace.laplace_plus(P, z.order)) is None


# ---------------------------------------------------------------------------
# algebra

# the family of series each law constrains; on it the law must hold
LAW_FAMILY = {
    "A": "f2", "B": "f2", "C": "f2", "f2simple2": "f2", "f23up": "f2",
    "Aprime": "rho", "Bprime": "rho", "Cprime": "rho", "D": "rho", "E": "rho",
    "rhoformula": "rho", "rho_sym1": "rho", "rho_sym2": "rho",
    "rho_sym3": "rho", "Adoubleprime": "sigma", "f1shift": "f1",
    "f1period": "f1", "f1neg": "f1", "f0gl2z": "f0",
}


def _solution_rho(rng, bases, order):
    """A seeded rational combination of every solution basis polynomial of
    degree <= order: a dense even series satisfying (A') and (E)."""
    rho = series.Series2.zero(order)
    for d in range(0, order + 1, 2):
        for vec in bases[d].vectors:
            rho = rho + vspace.from_coefficients(vec, d, order).scalar_mul(
                gen.random_rational(rng) or 1)
    return rho


def build_algebra(seed: int, workdir: str, small: bool = False):
    S2 = series.Series2
    rng = random.Random(f"algebra/{seed}")
    orders = ALGEBRA_ORDERS[:1] if small else ALGEBRA_ORDERS
    law_order = 8 if small else ALGEBRA_LAW_ORDER
    degrees = ALGEBRA_BASIS_DEGREES[:1] if small else ALGEBRA_BASIS_DEGREES
    bases = {d: vspace.vd_basis(d) for d in range(0, max(orders) + 1, 2)}

    ops = []
    for n in orders:
        f = S2(gen.dense_coefficients(rng, n), n)
        rho = S2(gen.dense_coefficients(rng, n, even=True), n)
        ops.append(Op(f"dagger(sharp(f)) order {n}",
                      lambda f=f: laws.dagger(laws.sharp(f)),
                      _series_finisher(f)))
        ops.append(Op(f"sharp(dagger(rho)) order {n}",
                      lambda rho=rho: laws.sharp(laws.dagger(rho)),
                      _series_finisher(rho)))

    rho = _solution_rho(rng, bases, law_order)
    g = series.Series1({k: gen.random_rational(rng)
                        for k in range(law_order + 1)}, law_order)
    family = {
        "rho": rho,
        "f2": laws.dagger(_solution_rho(rng, bases, law_order + 1)),
        "sigma": laws.to_st(rho),
        "f1": series.compose_univariate(g, S2.monomial(1, 2, 0, law_order))
        * series.exp_linear(Fraction(1, 2), 0, law_order),
        "f0": S2.constant(gen.random_rational(rng) or 1, law_order),
    }
    dense = S2(gen.dense_coefficients(rng, law_order), law_order)
    for law in laws.LAW_IDS:
        for kind, f in ((LAW_FAMILY[law], family[LAW_FAMILY[law]]),
                        ("dense", dense)):
            ops.append(Op(f"check_law {law} on {kind}",
                          lambda law=law, f=f: laws.check_law(law, f),
                          _law_finisher(kind != "dense")))

    for n in orders:
        sol = _solution_rho(rng, bases, n)
        ops.append(Op(f"to_st then Adoubleprime order {n}",
                      lambda sol=sol: laws.check_law("Adoubleprime",
                                                     laws.to_st(sol)),
                      _law_finisher(True)))

    for n in orders:
        # a D4 average, built directly in the two invariant generators
        coeffs = {(i, j): gen.random_rational(rng) or 1
                  for i in range(n // 2 + 1) for j in range(n // 4 + 1)
                  if 2 * i + 4 * j <= n}
        h = laws.d4_compose(S2(coeffs, n), n)
        ops.append(Op(f"d4_decompose order {n}",
                      lambda h=h: laws.d4_decompose(h),
                      _series_finisher(S2(coeffs, n))))

    for d in degrees:
        for fn in ("vd_basis", "st_basis"):
            ops.append(Op(f"{fn}({d})",
                          lambda fn=fn, d=d: getattr(vspace, fn)(d),
                          _basis_finisher(d)))
    return ops


def _law_finisher(expected):
    def finish(report):
        return digest_text(json.dumps(report.as_dict())), report.holds is expected
    return finish


def _basis_finisher(d):
    def finish(basis):
        text = json.dumps([io.series2_to_obj(p) for p in basis.polynomials()])
        return digest_text(text), basis.dim == vspace.predicted_dim(d)
    return finish


WORKLOADS = {
    "evaluate": build_evaluate,
    "verify": build_verify,
    "algebra": build_algebra,
}
