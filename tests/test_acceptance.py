"""Acceptance gate: one test per shipping criterion, zero tolerance.

Reference values come from tests/oracles.py (brute-force enumeration,
committed before the library was written) and from the test instances
frozen in the other test modules.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import oracles
from reflexorb.fan import Cone, interior_boxes, normal_fan, toric_twisted_sectors
from reflexorb.hodge import cy_twisted_sectors, hodge_report, mirror_check
from reflexorb.jacobian import jacobian_rank_check, monomial_basis
from reflexorb.polytope import LatticePolytope, ReflexivePair, format_vertex_matrix

from boxes import box_elements, is_interior
from pairing import dual_face, gamma
from test_hodge import (
    FIVEDIM_POLAR,
    OCTIC_POLAR,
    QUINTIC_POLAR,
    SEXTIC_POLAR,
    make_pair,
)
from test_polytope import CROSS4, SIMPLEX_POLAR

ALL_PAIRS = [
    ("simplex-11222", SIMPLEX_POLAR),
    ("quintic", QUINTIC_POLAR),
    ("cross", CROSS4),
    ("sextic", SEXTIC_POLAR),
    ("octic", OCTIC_POLAR),
    ("fivedim-112222", FIVEDIM_POLAR),
]


def test_criterion_1_golden_run():
    start = time.monotonic()
    pair = make_pair(SIMPLEX_POLAR)
    rep = hodge_report(pair)
    assert (rep.h11_untwisted, rep.hn21_untwisted) == (1, 83)
    assert (rep.h11_orb, rep.hn21_orb) == (2, 86)

    toric = toric_twisted_sectors(normal_fan(pair))
    assert len(toric) == 1
    assert sorted(toric[0].cone.generators) == sorted(
        [(-1, -2, -2, -2), (1, 0, 0, 0)]
    )
    assert toric[0].support_dim == 2
    assert toric[0].group_order == 2
    assert toric[0].age == 1

    cy = cy_twisted_sectors(pair)
    assert len(cy) == 1
    assert cy[0].h_top == 3

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"[PASS] criterion 1: golden run (1, 83, 2, 86), one sector each side, {elapsed:.2f}s")


def test_criterion_2_mirror():
    rep = mirror_check(make_pair(SIMPLEX_POLAR))
    assert rep.hypothesis_met
    assert rep.primary == (2, 86)
    assert rep.swapped == (86, 2)
    assert rep.match
    print("[PASS] criterion 2: mirror swap gives (86, 2) and the exchange holds")


def test_criterion_3_quintic_suite():
    start = time.monotonic()
    pair = make_pair(QUINTIC_POLAR)
    assert toric_twisted_sectors(normal_fan(pair)) == ()
    assert cy_twisted_sectors(pair) == ()
    rep = hodge_report(pair)
    assert (rep.h11_orb, rep.hn21_orb) == (1, 101)
    jrep = jacobian_rank_check(pair, seed=0)
    assert jrep.gamma == 25
    assert jrep.l_delta == 126
    assert jrep.quotient == 101 and jrep.agrees
    # cross-checked against the standalone enumeration oracle
    assert len(oracles.weighted_monomials((1, 1, 1, 1, 1), 5)) == 126
    counts = [
        oracles.weighted_face_interior_count((1, 1, 1, 1, 1), (i,)) for i in range(5)
    ]
    assert counts == [4, 4, 4, 4, 4]
    assert 5 + sum(counts) == 25 == jrep.gamma
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"[PASS] criterion 3: quintic (1, 101), quotient 101 at gamma 25, {elapsed:.2f}s")


def test_criterion_4_cube_cross_suite():
    pair = make_pair(CROSS4)
    rep = hodge_report(pair)
    assert rep.l_delta == 81
    assert rep.l_polar == 9
    assert (rep.h11_orb, rep.hn21_orb) == (4, 68)
    jrep = jacobian_rank_check(pair, seed=0)
    assert jrep.quotient == 68 and jrep.agrees
    assert oracles.cube_lattice_count(4, 1) == 81
    print("[PASS] criterion 4: cube/cross (81, 9, 4, 68), quotient 68")


def test_criterion_5_jacobian_formula_equivalence():
    checked = 0
    for name, verts in ALL_PAIRS:
        pair = make_pair(verts)
        g = gamma(pair)
        l_delta = len(monomial_basis(pair))
        for seed in (0, 1, 2):
            rep = jacobian_rank_check(pair, seed=seed)
            assert rep.rank == g, (name, seed)
            assert rep.quotient == l_delta - g == rep.formula, (name, seed)
            assert rep.agrees and rep.generic, (name, seed)
        checked += 1
    assert checked >= 5
    print(f"[PASS] criterion 5: rank = gamma and quotient = formula on {checked} instances x 3 seeds")


def test_criterion_6_box_property_suite():
    rng = random.Random(20260816)
    accepted = 0
    draws = 0
    while accepted < 50 and draws < 4000:
        draws += 1
        d = rng.choice((2, 2, 3, 3, 4))
        bound = 2 if d == 4 else (3 if d == 3 else 6)
        gens = [
            tuple(rng.randint(-bound, bound) for _ in range(d)) for _ in range(d)
        ]
        det = oracles.det_perm([list(g) for g in gens])
        if det == 0 or abs(det) > 60:
            continue
        accepted += 1
        expected = oracles.box_points_scan([list(g) for g in gens])
        got = box_elements(Cone(tuple(gens)))
        assert [(b.point, b.coefficients) for b in got] == [
            (tuple(p), tuple(c)) for p, c in expected
        ], gens
        assert len(got) == abs(det)
        interior = [b for b in got if is_interior(b)]
        coeff_set = {b.coefficients for b in got}
        for b in interior:
            partner = tuple(1 - c for c in b.coefficients)
            assert partner in coeff_set
            assert b.age + sum(partner) == d
    assert accepted >= 50
    print(f"[PASS] criterion 6: {accepted} random cones, SNF box = scan, count = |det|, age pairing")


def test_criterion_7_structural_identities():
    for name, verts in ALL_PAIRS:
        pair = make_pair(verts)
        polar = pair.delta_polar
        n = pair.n

        total = len(polar.lattice_points())
        by_faces = 1 + sum(
            len(f.interior_lattice_points()) for f in polar.proper_faces()
        )
        assert total == by_faces, name

        for face in polar.proper_faces():
            dual = dual_face(pair, face)
            assert face.dim + dual.dim == n - 1, name

        assert pair.delta.polar_dual().vertices == polar.vertices, name

        # every box element is interior to one face
        for interior, _ in interior_boxes(normal_fan(pair)).values():
            for b in interior:
                assert b.age.denominator == 1, name
    print("[PASS] criterion 7: point partition, dual dims, involution, integral ages on all instances")


def test_criterion_8_determinism(tmp_path):
    path = tmp_path / "simplex.txt"
    path.write_text(format_vertex_matrix(SIMPLEX_POLAR))
    env = dict(os.environ)
    for command in ("hodge", "sectors-toric", "sectors-cy"):
        outs = []
        for threads in ("1", "4"):
            env["REFLEXORB_THREADS"] = threads
            proc = subprocess.run(
                [sys.executable, "-m", "reflexorb.cli", command, str(path)],
                capture_output=True,
                env=env,
                text=True,
            )
            assert proc.returncode == 0, (command, threads, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], command
        json.loads(outs[0])
    print("[PASS] criterion 8: byte-identical JSON with 1 and 4 threads")
