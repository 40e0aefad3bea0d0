import json
import os
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import reflexorb
from reflexorb import cli, fan, hodge, jacobian, polytope
from reflexorb.cli import main
from reflexorb.polytope import (
    FacetInequality,
    LatticePolytope,
    format_vertex_matrix,
    parse_vertex_matrix,
)

from test_polytope import CROSS4, CUBE4, P11169, SIMPLEX_DELTA, SIMPLEX_POLAR

SQUARE = [(-1, -1), (1, -1), (1, 1), (-1, 1)]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_poly(tmp_path, name, vertices):
    path = tmp_path / name
    path.write_text(format_vertex_matrix(vertices))
    return str(path)


@pytest.fixture()
def simplex_file(tmp_path):
    return write_poly(tmp_path, "simplex.txt", SIMPLEX_POLAR)


@pytest.fixture()
def cube_file(tmp_path):
    return write_poly(tmp_path, "cube.txt", CUBE4)


@pytest.fixture()
def square_file(tmp_path):
    return write_poly(tmp_path, "square.txt", SQUARE)


def test_wps_emits_reusable_vertex_file(capsys):
    code, out, _ = run_cli(["wps", "1", "1", "2", "2", "2"], capsys)
    assert code == 0
    verts = parse_vertex_matrix(out)
    assert sorted(verts) == sorted(SIMPLEX_POLAR)
    assert out.splitlines()[0] == "5 4"


def test_wps_rotation(capsys):
    code_a, out_a, _ = run_cli(["wps", "1", "1", "2", "2", "2"], capsys)
    code_b, out_b, _ = run_cli(["wps", "2", "2", "1", "1", "2"], capsys)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_wps_quintic(capsys):
    code, out, _ = run_cli(["wps", "1", "1", "1", "1", "1"], capsys)
    assert code == 0
    verts = parse_vertex_matrix(out)
    poly = LatticePolytope.from_vertices(verts)
    assert poly.is_reflexive()
    assert len(poly.vertices) == 5


def test_wps_pinned_sextic_reflexive(capsys):
    # (1,1,1,1,2) gives a reflexive hull
    code, out, _ = run_cli(["wps", "1", "1", "1", "1", "2"], capsys)
    assert code == 0
    assert LatticePolytope.from_vertices(parse_vertex_matrix(out)).is_reflexive()


def test_wps_rejections(capsys):
    # common factor after dropping one weight
    code, _, err = run_cli(["wps", "2", "2", "1", "2", "2"], capsys)
    assert code == 4 and "well-formed" in err
    # no unit weight
    code, _, err = run_cli(["wps", "2", "3", "5"], capsys)
    assert code == 2
    # non-reflexive hull
    code, _, err = run_cli(["wps", "1", "1", "3"], capsys)
    assert code == 2 and "reflexive" in err
    # nonpositive
    code, _, err = run_cli(["wps", "1", "0", "1"], capsys)
    assert code == 4
    # too few
    code, _, err = run_cli(["wps", "1", "1"], capsys)
    assert code == 4


def test_hodge_golden(simplex_file, capsys):
    code, out, _ = run_cli(["hodge", simplex_file], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["h11"] == 1
    assert obj["h11_orb"] == 2
    assert obj["h21"] == 83
    assert obj["h21_orb"] == 86
    assert obj["euler"] == -168
    assert obj["n"] == 4 and obj["r"] == 5
    assert obj["tool_version"]
    assert len(obj["input_hash"]) == 64
    assert obj["forced"] is False
    assert obj["diamond"][3] == [1, 86, 86, 1]


def test_hodge_dual_orientation(tmp_path, simplex_file, capsys):
    delta_file = write_poly(tmp_path, "delta.txt", SIMPLEX_DELTA)
    code_a, out_a, _ = run_cli(["hodge", simplex_file], capsys)
    code_b, out_b, _ = run_cli(["hodge", "--dual", delta_file], capsys)
    assert code_a == code_b == 0
    a, b = json.loads(out_a), json.loads(out_b)
    for key in ("h11", "h11_orb", "h21", "h21_orb", "euler", "r"):
        assert a[key] == b[key]
    assert a["input_hash"] != b["input_hash"]


def test_hodge_via_wps_flag(capsys):
    code, out, _ = run_cli(["hodge", "--wps", "1,1,2,2,2"], capsys)
    assert code == 0
    assert json.loads(out)["h21_orb"] == 86


def test_sectors_toric_golden(simplex_file, capsys):
    code, out, _ = run_cli(["sectors-toric", simplex_file], capsys)
    assert code == 0
    sectors = json.loads(out)["sectors"]
    assert len(sectors) == 1
    s = sectors[0]
    assert s["point"] == [0, -1, -1, -1]
    assert s["coefficients"] == ["1/2", "1/2"]
    assert s["age"] == 1
    assert s["group_order"] == 2
    assert s["support_dim"] == 2


def test_sectors_cy_golden(simplex_file, capsys):
    code, out, _ = run_cli(["sectors-cy", simplex_file], capsys)
    assert code == 0
    sectors = json.loads(out)["sectors"]
    assert len(sectors) == 1
    assert sectors[0]["h_top"] == 3
    assert sectors[0]["components"] == 1
    assert sectors[0]["face_dim"] == 1


def test_sectors_cy_quintic_empty(capsys):
    code, out, _ = run_cli(["sectors-cy", "--wps", "1,1,1,1,1"], capsys)
    assert code == 0
    assert json.loads(out)["sectors"] == []


def test_oracle_jacobian(simplex_file, capsys):
    code, out, _ = run_cli(["oracle-jacobian", simplex_file, "--seed", "1"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == 22
    assert obj["gamma"] == 22
    assert obj["quotient"] == 83
    assert obj["formula"] == 83
    assert obj["agrees"] is True
    assert obj["seed"] == 1 and obj["attempts"] == 1


def test_mirror_golden(simplex_file, capsys):
    code, out, _ = run_cli(["mirror", simplex_file], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["hypothesis_met"] is True
    assert obj["primary"] == [2, 86]
    assert obj["swapped"] == [86, 2]
    assert obj["match"] is True


def test_mirror_unmet(tmp_path, capsys):
    cross_file = write_poly(tmp_path, "cross.txt", CROSS4)
    code, out, _ = run_cli(["mirror", cross_file], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["hypothesis_met"] is False
    assert "swapped" in obj["reason"]
    assert obj["match"] is None


def test_points(simplex_file, capsys):
    code, out, _ = run_cli(["points", simplex_file], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["count"] == 7
    code, out, _ = run_cli(["points", simplex_file, "--interior-only"], capsys)
    obj = json.loads(out)
    assert obj["count"] == 1 and obj["points"] == [[0, 0, 0, 0]]


def test_points_dilate_square(square_file, capsys):
    code, out, _ = run_cli(["points", square_file], capsys)
    assert json.loads(out)["count"] == 9
    code, out, _ = run_cli(["points", square_file, "--dilate", "2"], capsys)
    assert json.loads(out)["count"] == 25
    code, out, _ = run_cli(
        ["points", square_file, "--dilate", "2", "--interior-only"], capsys
    )
    assert json.loads(out)["count"] == 9
    code, _, _ = run_cli(["points", square_file, "--dilate", "0"], capsys)
    assert code == 4


def test_reflexive_command(tmp_path, simplex_file, capsys):
    code, out, _ = run_cli(["reflexive", simplex_file], capsys)
    assert code == 0 and json.loads(out)["reflexive"] is True
    doubled = [tuple(2 * x for x in v) for v in SIMPLEX_POLAR]
    bad_file = write_poly(tmp_path, "doubled.txt", doubled)
    code, out, _ = run_cli(["reflexive", bad_file], capsys)
    assert code == 2
    obj = json.loads(out)  # complete JSON even on the failing answer
    assert obj["reflexive"] is False and obj["r"] is None


def test_points_and_faces_accept_non_reflexive_input(tmp_path, capsys):
    # neither command needs the dual, so r is null and the exit code 0
    doubled = [tuple(2 * x for x in v) for v in SIMPLEX_POLAR]
    bad_file = write_poly(tmp_path, "doubled.txt", doubled)
    code, out, _ = run_cli(["points", bad_file], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["r"] is None
    assert obj["count"] == len(LatticePolytope.from_vertices(doubled).lattice_points())
    code, out, _ = run_cli(["faces", bad_file, "--format", "tsv"], capsys)
    assert code == 0 and "r\tnull" in out.splitlines()
    code, _, _ = run_cli(["points", bad_file, "--dual"], capsys)
    assert code == 0


def test_ray_count_without_the_pair(tmp_path, simplex_file, capsys):
    # r is the fan-side vertex count: the input's own, or under --dual the
    # vertex count of its polar, which hodge computes from the pair
    cube_file = write_poly(tmp_path, "cube.txt", CUBE4)
    for args in ([simplex_file], [simplex_file, "--dual"], [cube_file, "--dual"]):
        rs = set()
        for cmd in ("points", "faces", "info"):
            code, out, _ = run_cli([cmd] + args, capsys)
            assert code == 0
            rs.add(json.loads(out)["r"])
        assert len(rs) == 1
    code, out, _ = run_cli(["points", cube_file, "--dual"], capsys)
    assert json.loads(out)["r"] == len(CROSS4)


def test_faces_counts(simplex_file, capsys):
    code, out, _ = run_cli(["faces", simplex_file], capsys)
    obj = json.loads(out)
    assert obj["counts"] == [5, 10, 10, 5]
    edges = [f for f in obj["faces"] if f["dim"] == 1]
    assert sum(f["n_interior"] for f in edges) == 1


def test_info(simplex_file, capsys):
    code, out, _ = run_cli(["info", simplex_file], capsys)
    obj = json.loads(out)
    assert obj["reflexive"] is True
    assert obj["simplicial"] is True
    assert obj["l_delta"] == 105
    assert obj["l_polar"] == 7
    assert obj["vertices_delta"] == 5


def test_dual_roundtrip(simplex_file, capsys):
    code, out, _ = run_cli(["dual", simplex_file, "--format", "tsv"], capsys)
    assert code == 0
    dual_verts = parse_vertex_matrix(out)
    assert sorted(dual_verts) == sorted(SIMPLEX_DELTA)
    # feed it back: dual twice reproduces the input vertex set
    dual_poly = LatticePolytope.from_vertices(dual_verts)
    back = dual_poly.polar_dual()
    assert sorted(back.vertices) == sorted(SIMPLEX_POLAR)


def test_dual_json(simplex_file, capsys):
    code, out, _ = run_cli(["dual", simplex_file], capsys)
    obj = json.loads(out)
    assert sorted(tuple(v) for v in obj["vertices"]) == sorted(SIMPLEX_DELTA)


def test_exit_code_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("5 x\n")
    code, out, err = run_cli(["hodge", str(bad)], capsys)
    assert code == 4 and out == "" and "line 1" in err

    short = tmp_path / "short.txt"
    short.write_text("3 2\n1 0\n0 1\n-1 -1\n1 1\n")
    code, _, err = run_cli(["points", str(short)], capsys)
    assert code == 4

    code, _, err = run_cli(["hodge", "/nonexistent/path.txt"], capsys)
    assert code == 4

    code, _, err = run_cli(["hodge"], capsys)
    assert code == 4 and "input source" in err

    code, _, err = run_cli(["hodge", "--wps", "1,1,1,1,1", "extra.txt"], capsys)
    assert code == 4

    code, _, err = run_cli(["hodge", "--wps", "1,a,1"], capsys)
    assert code == 4

    code, _, err = run_cli(["no-such-command"], capsys)
    assert code == 4


def test_exit_code_not_simplicial(cube_file, capsys):
    code, _, err = run_cli(["hodge", cube_file], capsys)
    assert code == 3
    code, _, err = run_cli(["sectors-toric", cube_file], capsys)
    assert code == 3


def drop_a_facet(monkeypatch):
    real = polytope._convex_hull

    def hull_missing_a_facet(pts, n):
        vertices, inequalities = real(pts, n)
        return vertices, inequalities[1:]

    monkeypatch.setattr(polytope, "_convex_hull", hull_missing_a_facet)


def test_exit_code_audit(tmp_path, capsys, monkeypatch):
    drop_a_facet(monkeypatch)
    code, out, err = run_cli(["hodge", write_poly(tmp_path, "cross.txt", CROSS4)], capsys)
    assert (code, out) == (6, "")
    assert err.startswith("reflexorb: not Eulerian")
    assert err.count("\n") == 1 and "Traceback" not in err


def rotate_seed_facets(monkeypatch):
    # each seed point gets its neighbour's facet
    real = polytope._seed_functionals
    monkeypatch.setattr(polytope, "_seed_functionals", lambda rows: real(rows)[1:] + real(rows)[:1])


def skip_first_added_point(monkeypatch):
    real = polytope._add_point
    skipped = []

    def add_point(facets, p, bit, n):
        if not skipped:
            skipped.append(p)
            return facets
        return real(facets, p, bit, n)

    monkeypatch.setattr(polytope, "_add_point", add_point)


def add_a_ridge_functional(monkeypatch):
    # at cross4's last point, the sum of two adjacent facets: beneath every
    # point, but tight only on the n - 1 vertices of their common ridge
    real = polytope._add_point

    def add_point(facets, p, bit, n):
        out = real(facets, p, bit, n)
        if bit == 1 << 7:
            (f, mf), (g, mg) = next(
                (a, b) for a, b in combinations(out, 2) if (a[1] & b[1]).bit_count() == n - 1
            )
            out.append(([x + y for x, y in zip(f, g)], mf & mg))
        return out

    monkeypatch.setattr(polytope, "_add_point", add_point)


@pytest.mark.parametrize(
    "tamper,message",
    [
        (rotate_seed_facets, "a seed facet does not pass through exactly the other seed points"),
        (skip_first_added_point, "convex hull leaves an input point beyond a facet"),
        (add_a_ridge_functional, "a hull facet passes through fewer than 4 input points"),
    ],
    ids=["seed", "beneath", "tight"],
)
def test_exit_code_hull_audits(tamper, message, tmp_path, capsys, monkeypatch):
    tamper(monkeypatch)
    code, out, err = run_cli(["info", write_poly(tmp_path, "cross.txt", CROSS4)], capsys)
    assert (code, out, err) == (6, "", f"reflexorb: {message}\n")


def test_exit_code_audit_hodge_split(capsys, monkeypatch):
    # an h11_orb one too high must trip the divisor audit, also under python -O
    real = hodge.h11_orb
    monkeypatch.setattr(hodge, "h11_orb", lambda pair, force=False: real(pair, force) + 1)
    code, out, err = run_cli(["hodge", "--wps", "1,1,12,28,42"], capsys)
    assert (code, out) == (6, "")
    assert err.startswith("reflexorb: divisor audit failed")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_exit_code_audit_column_keys(capsys, monkeypatch):
    # with every radix 1 a key is a coordinate sum, so distinct monomials
    # share a column key and the oracle must refuse the matrix
    monkeypatch.setattr(jacobian, "_keys", lambda points: [sum(p) for p in points])
    code, out, err = run_cli(["oracle-jacobian", "--wps", "1,1,2,2,2"], capsys)
    assert (code, out) == (6, "")
    assert err == "reflexorb: two lattice points of delta share a column key\n"


def corrupt_polar_dual(monkeypatch):
    # the first facet of delta turned inside out, so a vertex of delta lies
    # beyond it
    real = LatticePolytope.polar_dual

    def polar_dual(self):
        dual = real(self)
        first, *rest = dual.facets
        flipped = FacetInequality(tuple(-x for x in first.normal), first.offset)
        return LatticePolytope(dual.vertices, [flipped, *rest])

    monkeypatch.setattr(LatticePolytope, "polar_dual", polar_dual)


@pytest.mark.parametrize("command", ["hodge", "mirror", "sectors-cy", "oracle-jacobian"])
def test_exit_code_audit_polar_vertices(command, capsys, monkeypatch):
    # no command builds delta's face lattice, so the pair checks delta's
    # vertices against its facets itself
    corrupt_polar_dual(monkeypatch)
    code, out, err = run_cli([command, "--wps", "1,1,2,2,2"], capsys)
    assert (code, out) == (6, "")
    assert err.startswith("reflexorb: vertex ") and "violates the facet with normal" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_hodge_commands_build_one_face_lattice(capsys, monkeypatch):
    # the Hodge sums read delta's faces from its points by facet mask:
    # delta's face lattice is never built, and a hodge run asks for lattice
    # points a bounded number of times
    pairs = []
    real_pair = cli._pair_from
    monkeypatch.setattr(cli, "_pair_from", lambda poly, dual: pairs.append(real_pair(poly, dual)) or pairs[-1])
    builds = []
    real_build = LatticePolytope._build_face_lattice
    monkeypatch.setattr(LatticePolytope, "_build_face_lattice", lambda self: builds.append(self) or real_build(self))
    calls = []
    real_points = LatticePolytope.lattice_points
    monkeypatch.setattr(LatticePolytope, "lattice_points", lambda self, k=1: calls.append(k) or real_points(self, k))
    for command in ("hodge", "mirror", "sectors-cy", "oracle-jacobian"):
        builds.clear()
        calls.clear()
        code, out, _ = run_cli([command, "--wps", "1,1,2,2,2"], capsys)
        assert code == 0 and out, command
        assert pairs[-1].delta._faces_by_dim is None, command
        assert len(builds) == 1 and builds[0] is pairs[-1].delta_polar, command
        if command == "hodge":
            assert len(calls) <= 12


def test_exit_code_audit_box_walk(tmp_path, capsys, monkeypatch):
    # the identity in place of the Smith form's row transform walks a group
    # whose elements are not lattice points; on this fan none of them is
    # interior, so only the check on the group's generators sees it
    real = fan.smith_normal_form

    def wrong_transform(m):
        d, u, v = real(m)
        return d, [[int(i == j) for j in range(len(u))] for i in range(len(u))], v

    monkeypatch.setattr(fan, "smith_normal_form", wrong_transform)
    path = write_poly(tmp_path, "p11169.txt", P11169)
    code, out, err = run_cli(["sectors-toric", path, "--dual"], capsys)
    assert (code, out) == (6, "")
    assert err.startswith("reflexorb: box generator") and "is not a lattice point" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def patched_smith(monkeypatch, change, only=None):
    """Route the fan's Smith forms through change(d, u), for every cone or
    for the generator matrix only."""
    real = fan.smith_normal_form

    def smith(m):
        d, u, v = real(m)
        if only is None or m == only:
            d, u = change([row[:] for row in d], [row[:] for row in u])
        return d, u, v

    monkeypatch.setattr(fan, "smith_normal_form", smith)


def negate_factors(d, u):
    for i in range(min(len(d), len(d[0]))):
        d[i][i] = -d[i][i]
    return d, u


def drop_last_factor(d, u):
    k = min(len(d), len(d[0])) - 1
    d[k][k] = 0
    return d, u


def non_dividing_first_factor(d, u):
    d[0][0] = 4
    return d, u


def repeat_last_cyclic_factor(d, u):
    # the last row twice, each of order D: every element is walked twice
    k = min(len(d), len(d[0])) - 1
    d[k - 1][k - 1] = d[k][k]
    u[k - 1] = u[k]
    return d, u


def identity_transform(d, u):
    return d, [[int(i == j) for j in range(len(u))] for i in range(len(u))]


def no_face_interiors(monkeypatch):
    monkeypatch.setattr(polytope.Face, "interior_lattice_points", lambda self: ())


# name -> (commands, vertices, exit code, part of the stderr line, setup(monkeypatch))
FAILURES = {
    "negative factor": (
        ("sectors-toric", "sectors-cy"), P11169, 6, "Smith form has a negative invariant factor",
        lambda mp: patched_smith(mp, negate_factors),
    ),
    "rank": (
        ("sectors-toric", "sectors-cy"), P11169, 6, "cone over a 3-face has rank 3, not 4",
        lambda mp: patched_smith(mp, drop_last_factor),
    ),
    "invariant factors": (
        ("sectors-toric", "sectors-cy"), P11169, 6, "invariant factors (4, 1, 1, 6) do not divide",
        lambda mp: patched_smith(mp, non_dividing_first_factor),
    ),
    "box generator": (
        ("sectors-toric", "sectors-cy"), P11169, 6, "box generator",
        lambda mp: patched_smith(mp, identity_transform),
    ),
    "repeated points": (
        ("sectors-toric", "sectors-cy"), P11169, 6, "box points repeat",
        lambda mp: patched_smith(mp, repeat_last_cyclic_factor),
    ),
    "face interior": (
        ("sectors-cy",), P11169, 6, "disagrees with the face interior", no_face_interiors,
    ),
    "not eulerian": (("sectors-toric", "sectors-cy"), CROSS4, 6, "not Eulerian", drop_a_facet),
    "not simplicial": (("sectors-toric", "sectors-cy"), CUBE4, 3, "twisted sectors require", None),
    "hypothesis": (("sectors-cy",), SQUARE, 5, "formulas assume ambient dimension >= 4", None),
}


@pytest.mark.parametrize(
    "case,command,fmt",
    [(case, cmd, fmt) for case, spec in FAILURES.items() for cmd in spec[0] for fmt in ("json", "tsv")],
)
def test_sector_failures_leave_stdout_empty(case, command, fmt, tmp_path, capsys, monkeypatch):
    # sector rows stream out only after every sector and audit is settled
    _, vertices, want_code, want_err, setup = FAILURES[case]
    path = write_poly(tmp_path, "input.txt", vertices)
    if setup is not None:
        setup(monkeypatch)
    code, out, err = run_cli([command, path, "--format", fmt], capsys)
    assert (code, out) == (want_code, "")
    assert err.startswith("reflexorb: ") and want_err in err, err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["sectors-toric", "sectors-cy", "hodge"])
def test_exit_code_audit_shared_face(command, tmp_path, capsys, monkeypatch):
    # one maximal cone's Smith form claims a trivial group; another maximal
    # cone walks elements on a face the two share, so the counts disagree
    pair = polytope.ReflexivePair(LatticePolytope.from_vertices(P11169))
    boxes = fan.interior_boxes(fan.normal_fan(pair))
    maximal = [c for c in boxes if len(c.generators) == pair.n]
    shared = next(
        face for face, (interior, _) in boxes.items()
        if interior and sum(set(face.generators) <= set(c.generators) for c in maximal) > 1
    )
    target = next(c for c in maximal if set(shared.generators) <= set(c.generators))
    patched_smith(
        monkeypatch,
        lambda d, u: ([[int(i == j) for j in range(len(d[0]))] for i in range(len(d))], u),
        only=[list(g) for g in target.generators],
    )
    code, out, err = run_cli([command, write_poly(tmp_path, "p11169.txt", P11169)], capsys)
    assert (code, out) == (6, "")
    assert err.startswith("reflexorb: maximal cones disagree on the face")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_exit_code_hypothesis(square_file, capsys):
    code, _, err = run_cli(["hodge", square_file], capsys)
    assert code == 5 and "force" in err
    code, out, _ = run_cli(["hodge", square_file, "--force"], capsys)
    assert code == 0
    assert json.loads(out)["forced"] is True


def test_exit_code_not_reflexive(tmp_path, capsys):
    doubled = [tuple(2 * x for x in v) for v in SIMPLEX_POLAR]
    bad_file = write_poly(tmp_path, "doubled.txt", doubled)
    code, out, err = run_cli(["hodge", bad_file], capsys)
    assert code == 2 and out == ""


def test_repeat_runs_byte_identical(simplex_file, capsys):
    _, out_a, _ = run_cli(["hodge", simplex_file], capsys)
    _, out_b, _ = run_cli(["hodge", simplex_file], capsys)
    assert out_a == out_b


def test_wps_json_hash_matches_file_hash(tmp_path, capsys):
    code, out, _ = run_cli(["wps", "1", "1", "2", "2", "2", "--format", "json"], capsys)
    wps_obj = json.loads(out)
    poly_file = write_poly(
        tmp_path, "w.txt", [tuple(v) for v in wps_obj["vertices"]]
    )
    code, out, _ = run_cli(["hodge", poly_file], capsys)
    assert json.loads(out)["input_hash"] == wps_obj["input_hash"]


def test_tsv_output(simplex_file, capsys):
    code, out, _ = run_cli(["hodge", simplex_file, "--format", "tsv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "h11_orb\t2" in lines
    assert "h21_orb\t86" in lines
    code, out, _ = run_cli(["sectors-toric", simplex_file, "--format", "tsv"], capsys)
    rows = [l for l in out.splitlines() if l.startswith("sectors\t")]
    assert len(rows) == 2  # header plus the single sector


def test_thread_env_byte_identical(simplex_file):
    env = dict(os.environ)
    outs = []
    for threads in ("1", "4"):
        env["REFLEXORB_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "reflexorb.cli", "hodge", simplex_file],
            capture_output=True,
            env=env,
            text=True,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def declared_console_script(name):
    """The `module:attr` target of console script `name` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert name in scripts, f"pyproject.toml declares no {name!r} console script"
    module, _, attr = scripts[name].partition(":")
    assert module and attr, f"entry point {scripts[name]!r} is not module:attr"
    return module, attr


def check_sectors_toric_script(simplex_file, env=None):
    proc = subprocess.run(
        ["reflexorb", "sectors-toric", simplex_file],
        capture_output=True,
        env=env,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["sectors"][0]["age"] == 1


def test_console_entry_point(tmp_path, simplex_file):
    # Build the wrapper an installer generates for the declared entry point,
    # so the script runs as its own `reflexorb` process without an install.
    module, attr = declared_console_script("reflexorb")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "reflexorb"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    script.chmod(0o755)
    # Run the package the suite imported, whatever the cwd.
    package_root = str(Path(reflexorb.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    check_sectors_toric_script(simplex_file, env)


@pytest.mark.skipif(
    shutil.which("reflexorb") is None,
    reason="no installed reflexorb console script on PATH",
)
def test_installed_console_script(simplex_file):
    check_sectors_toric_script(simplex_file)
