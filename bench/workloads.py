"""Seeded inputs, command lists and output checks for the benchmark.

Nothing here imports reflexorb: the vertex files, the expected input
hashes, the polar duals used to size the sheared inputs and Vafa's Euler
numbers are all computed with the standard library, so the checks share no
code with what they check.

A workload is a fixed list of commands. The seed decides the order of the
list, the row order of every vertex file and the `--seed` of each oracle
call; the program only sees the files and the argument vectors.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("hodge-sweep", "jacobian-rank", "basis-shear", "toric-dual")

JACOBIAN_WEIGHTS = (
    (1, 1, 2, 2, 2),
    (1, 1, 1, 1, 1),
    (1, 1, 2, 8, 12),
    (1, 1, 3, 10, 15),
    (1, 1, 1, 6, 9),
    (1, 1, 6, 16, 24),
)
SHEAR_WEIGHTS = ((1, 1, 2, 2, 2), (1, 1, 1, 1, 1), (1, 1, 1, 6, 9), (1, 2, 2, 3, 4))
# Transforms per instance, and the bounding-box volume (fan side plus dual
# side, the points the program scans) each transformed input must have; the
# kept points stay 96 to 386. At equal volume the scan cost of one transform
# still varies by about 2x, so the transforms come from a fixed stream and
# the seed only permutes rows and command order: a pass then costs the same
# for every seed.
SHEAR_COPIES = 8
SHEAR_SCAN_TARGET = 50_000
SHEAR_SCAN_TOLERANCE = 0.03
TORIC_DUAL_WEIGHTS = ((1, 1, 2, 2, 2), (1, 1, 1, 6, 9), (1, 1, 12, 28, 42))
TORIC_DUAL_TSV = (1, 1, 1, 6, 9)
SWEEP_MAX_DEGREE = 50


@dataclass(frozen=True)
class Command:
    """One CLI invocation with what its output must satisfy.

    key names the golden digest; input_hash is the digest the program must
    report for the input; euler is Vafa's orbifold Euler number when the
    input is a weight system in dimension 4; reference names the instance
    whose untransformed (h11, h11_orb, h21, h21_orb) the output must repeat.
    """

    argv: tuple[str, ...]
    key: str
    input_hash: str
    oracle_seed: int | None = None
    euler: int | None = None
    reference: str | None = None


def wps_name(weights) -> str:
    return "P(" + ",".join(map(str, weights)) + ")"


def wps_vertices(weights) -> list[tuple[int, ...]]:
    """Fan-side simplex of P(1, w1, ..., wn): the unit vectors and -(w1..wn)."""
    n = len(weights) - 1
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append(tuple(-w for w in weights[1:]))
    return rays


def cross_vertices(n: int) -> list[tuple[int, ...]]:
    return [tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]


def sweep_weights(max_degree: int = SWEEP_MAX_DEGREE) -> list[tuple[int, ...]]:
    """Weight systems (1, a, b, c, e), a <= b <= c <= e, of degree at most
    max_degree whose fan-side simplex is reflexive: each weight divides the
    degree and (a, b, c, e) have no common factor."""
    out = []
    for a in range(1, max_degree):
        for b in range(a, max_degree):
            for c in range(b, max_degree):
                for e in range(c, max_degree):
                    d = 1 + a + b + c + e
                    if d > max_degree:
                        break
                    if math.gcd(a, b, c, e) == 1 and all(d % w == 0 for w in (a, b, c, e)):
                        out.append((1, a, b, c, e))
    return out


def vafa_euler(weights) -> int:
    """Orbifold Euler number of the degree-d hypersurface in P(weights),
    d = sum(weights), by Vafa's formula with q_i = w_i / d:

        chi = (1/d) * sum over l, r in 0..d-1 of the product, over the i with
              l*q_i and r*q_i both integral, of (1 - 1/q_i).
    """
    d = sum(weights)
    total = Fraction(0)
    for l in range(d):
        for r in range(d):
            term = Fraction(1)
            for w in weights:
                if l * w % d == 0 and r * w % d == 0:
                    term *= 1 - Fraction(d, w)
            total += term
    chi = total / d
    if chi.denominator != 1:
        raise ValueError(f"Euler number of {weights} is not an integer: {chi}")
    return int(chi)


def simplex_dual(vertices) -> list[tuple[int, ...]]:
    """Vertices of the polar dual {m : <m, v> >= -1} of a reflexive simplex:
    vertex k solves <m, v_j> = -1 for every j != k."""
    n = len(vertices[0])
    out = []
    for k in range(len(vertices)):
        rows = [[Fraction(x) for x in v] + [Fraction(-1)] for j, v in enumerate(vertices) if j != k]
        for col in range(n):
            pivot = next(r for r in range(col, n) if rows[r][col] != 0)
            rows[col], rows[pivot] = rows[pivot], rows[col]
            lead = rows[col][col]
            rows[col] = [x / lead for x in rows[col]]
            for r in range(n):
                if r != col and rows[r][col] != 0:
                    f = rows[r][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
        sol = [rows[r][n] for r in range(n)]
        if any(x.denominator != 1 for x in sol):
            raise ValueError("simplex is not reflexive")
        out.append(tuple(int(x) for x in sol))
    return out


def box_volume(points) -> int:
    """Lattice points of the bounding box of the points."""
    vol = 1
    for i in range(len(points[0])):
        vol *= max(p[i] for p in points) - min(p[i] for p in points) + 1
    return vol


def _apply_ops(ops, points, *, inverse_transpose=False):
    """Apply x_i += s * x_j for each (i, j, s), or the inverse transpose of
    the same product, which is how the dual lattice transforms."""
    pts = [list(p) for p in points]
    for i, j, s in ops:
        for p in pts:
            if inverse_transpose:
                p[j] -= s * p[i]
            else:
                p[i] += s * p[j]
    return [tuple(p) for p in pts]


def shear(vertices, rng: random.Random) -> list[tuple[int, ...]]:
    """A random GL(n, Z) image of a reflexive simplex, drawn from products
    of 3 to 8 elementary +-1 operations and a coordinate permutation, whose
    scanned volume (fan side plus dual side) lies in the target band."""
    n = len(vertices[0])
    dual = simplex_dual(vertices)
    lo = SHEAR_SCAN_TARGET * (1 - SHEAR_SCAN_TOLERANCE)
    hi = SHEAR_SCAN_TARGET * (1 + SHEAR_SCAN_TOLERANCE)
    for _ in range(200_000):
        ops = [(*rng.sample(range(n), 2), rng.choice((1, -1))) for _ in range(rng.randint(3, 8))]
        image = _apply_ops(ops, vertices)
        scanned = box_volume(image) + box_volume(_apply_ops(ops, dual, inverse_transpose=True))
        if lo <= scanned <= hi:
            perm = rng.sample(range(n), n)
            return [tuple(v[perm[i]] for i in range(n)) for v in image]
    raise RuntimeError("no transform in the scan-volume band")


def format_matrix(rows) -> str:
    return f"{len(rows)} {len(rows[0])}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def canonical_hash(vertices) -> str:
    """The input_hash the CLI must report: sha256 of the sorted vertex matrix."""
    return hashlib.sha256(format_matrix(sorted(vertices)).encode()).hexdigest()


class _Writer:
    """Writes each vertex file once, rows in seed-shuffled order."""

    def __init__(self, directory: Path, rng: random.Random):
        self.directory = directory
        self.rng = rng
        self.count = 0

    def write(self, vertices) -> str:
        rows = list(vertices)
        self.rng.shuffle(rows)
        self.count += 1
        path = self.directory / f"input{self.count:03d}.txt"
        path.write_text(format_matrix(rows), encoding="utf-8")
        return str(path)


def build(workload: str, seed: int, directory: Path) -> list[Command]:
    """Write the workload's vertex files into directory and return its
    command list. The same workload and seed give the same files and list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    writer = _Writer(directory, rng)
    cmds: list[Command] = []
    if workload == "hodge-sweep":
        systems = sweep_weights()
        rng.shuffle(systems)
        for w in systems:
            verts = wps_vertices(w)
            path, h, name = writer.write(verts), canonical_hash(verts), wps_name(w)
            cmds.append(Command(("hodge", path), f"hodge {name}", h, euler=vafa_euler(w)))
            cmds.append(Command(("mirror", path), f"mirror {name}", h))
    elif workload == "jacobian-rank":
        for w in JACOBIAN_WEIGHTS:
            verts = wps_vertices(w)
            s = rng.randrange(10**6)
            cmds.append(
                Command(
                    ("oracle-jacobian", writer.write(verts), "--seed", str(s)),
                    f"oracle-jacobian {wps_name(w)}",
                    canonical_hash(verts),
                    oracle_seed=s,
                )
            )
        rng.shuffle(cmds)
    elif workload == "basis-shear":
        transforms = random.Random("basis-shear transforms")
        for w in SHEAR_WEIGHTS:
            for _ in range(SHEAR_COPIES):
                verts = shear(wps_vertices(w), transforms)
                cmds.append(
                    Command(
                        ("hodge", writer.write(verts)),
                        f"hodge {wps_name(w)}",
                        canonical_hash(verts),
                        euler=vafa_euler(w),
                        reference=wps_name(w),
                    )
                )
        rng.shuffle(cmds)
    else:
        for w in TORIC_DUAL_WEIGHTS:
            verts = wps_vertices(w)
            argv = ("sectors-toric", writer.write(verts), "--dual")
            key = f"sectors-toric --dual {wps_name(w)}"
            if w == TORIC_DUAL_TSV:
                argv += ("--format", "tsv")
                key = f"sectors-toric --dual --format tsv {wps_name(w)}"
            cmds.append(Command(argv, key, canonical_hash(verts)))
        for name, verts in (("cross6", cross_vertices(6)), (wps_name((1,) * 7), wps_vertices((1,) * 7))):
            path, h = writer.write(verts), canonical_hash(verts)
            cmds.append(Command(("sectors-toric", path), f"sectors-toric {name}", h))
            cmds.append(Command(("hodge", path), f"hodge {name}", h))
        rng.shuffle(cmds)
    return cmds


def reference_inputs(workload: str, directory: Path) -> dict[str, str]:
    """Untransformed vertex files for the instances a workload's outputs
    are compared against, by instance name."""
    if workload != "basis-shear":
        return {}
    out = {}
    for w in SHEAR_WEIGHTS:
        path = directory / f"reference-{'-'.join(map(str, w))}.txt"
        path.write_text(format_matrix(wps_vertices(w)), encoding="utf-8")
        out[wps_name(w)] = str(path)
    return out


def hodge_numbers(stdout: str) -> tuple[int, int, int, int]:
    obj = json.loads(stdout)
    return obj["h11"], obj["h11_orb"], obj["h21"], obj["h21_orb"]


def normalized_digest(cmd: Command, stdout: str) -> str | None:
    """sha256 of stdout with the values that legitimately vary by seed (the
    input hash, and the oracle's seed) replaced by placeholders. None when
    a value is missing or appears other than exactly once."""
    subs = [(cmd.input_hash, "<input_hash>")]
    if cmd.oracle_seed is not None:
        subs.append((f'"seed": {cmd.oracle_seed},', '"seed": <seed>,'))
        subs.append((f'"seed_used": {cmd.oracle_seed},', '"seed_used": <seed>,'))
    for old, new in subs:
        if stdout.count(old) != 1:
            return None
        stdout = stdout.replace(old, new)
    return hashlib.sha256(stdout.encode()).hexdigest()


def check(cmd: Command, code, stdout: str, golden: dict, references: dict) -> str | None:
    """None when the command succeeded and its output passes every check,
    otherwise the reason it failed."""
    if code != 0:
        return f"exit code {code}"
    digest = normalized_digest(cmd, stdout)
    if digest is None:
        return "input hash or seed not reported exactly once"
    if golden.get(cmd.key) != digest:
        return "stdout differs from the golden output"
    command = cmd.argv[0]
    if command == "hodge":
        obj = json.loads(stdout)
        if cmd.euler is not None and obj["euler"] != cmd.euler:
            return f"euler {obj['euler']} != Vafa {cmd.euler}"
        if cmd.reference is not None and hodge_numbers(stdout) != references.get(cmd.reference):
            return f"hodge numbers {hodge_numbers(stdout)} != untransformed {references.get(cmd.reference)}"
    elif command == "mirror":
        if json.loads(stdout)["match"] is not True:
            return "mirror match is not true"
    elif command == "oracle-jacobian":
        obj = json.loads(stdout)
        if obj["agrees"] is not True or obj["generic"] is not True:
            return "oracle does not agree or draw not generic"
    return None
