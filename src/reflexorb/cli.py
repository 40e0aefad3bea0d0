"""Command-line front end.

Input is a vertex matrix file (or weighted-projective-space weights) read
as the fan-side polytope by default, `--dual` to read the dual side.
Output is JSON with sorted keys (default) or TSV; exact rationals are
rendered as "p/q" strings, integers stay integers. Exit codes: 0 success,
2 not reflexive (or unsupported weights), 3 fan not simplicial, 4 parse
or usage error, 5 dimension hypothesis violated without --force, 6 an
internal audit failed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict
from itertools import groupby
from operator import attrgetter

from . import __version__
from .errors import (
    AuditError,
    HypothesisError,
    NotFullDimensionalError,
    NotReflexiveError,
    NotSimplicialError,
    VertexFileError,
)
from .fan import normal_fan, toric_twisted_sectors
from .hodge import cy_twisted_sectors, hodge_report, mirror_check
from .jacobian import jacobian_rank_check
from .polytope import (
    LatticePolytope,
    ReflexivePair,
    format_vertex_matrix,
    parse_vertex_matrix,
)

EXIT_OK = 0
EXIT_NOT_REFLEXIVE = 2
EXIT_NOT_SIMPLICIAL = 3
EXIT_PARSE = 4
EXIT_HYPOTHESIS = 5
EXIT_AUDIT = 6


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse reserves status 2 for usage errors; that slot means
    # "not reflexive" here, so usage problems report as parse errors
    def error(self, message):
        raise CliError(message, EXIT_PARSE)


def wps_polytope(weights) -> LatticePolytope:
    """Fan-side polytope of a weighted projective space.

    Weights are rotated so a minimal weight sits first and must be
    well-formed (each weight coprime to the gcd of the others). The
    construction uses the standard basis rays plus the negative weighted
    sum; it needs the leading weight to be 1, and the hull must come out
    reflexive with every ray a vertex.
    """
    if len(weights) < 3:
        raise CliError("need at least three weights", EXIT_PARSE)
    if any(w < 1 for w in weights):
        raise CliError("weights must be positive integers", EXIT_PARSE)
    for i in range(len(weights)):
        rest = weights[:i] + weights[i + 1 :]
        if math.gcd(*rest) != 1:
            raise CliError(
                "weights are not well-formed: dropping one leaves a common factor",
                EXIT_PARSE,
            )
    pivot = weights.index(min(weights))
    weights = weights[pivot:] + weights[:pivot]
    if weights[0] != 1:
        raise CliError(
            "unsupported weights: no weight equals 1", EXIT_NOT_REFLEXIVE
        )
    n = len(weights) - 1
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-w for w in weights[1:]))
    try:
        poly = LatticePolytope.from_vertices(rays)
    except NotFullDimensionalError:
        raise CliError("weights give a degenerate hull", EXIT_PARSE) from None
    if len(poly.vertices) != n + 1:
        raise CliError("unsupported weights: a ray is not a vertex", EXIT_NOT_REFLEXIVE)
    if not poly.is_reflexive():
        raise CliError("weights give a non-reflexive hull", EXIT_NOT_REFLEXIVE)
    return poly


def _load_polytope(args) -> LatticePolytope:
    """Resolve the single input source to a polytope (fan side unless --dual)."""
    if args.command == "wps":
        return wps_polytope(args.weights)
    has_file = args.input is not None
    has_weights = args.wps is not None
    if has_file == has_weights:
        raise CliError("exactly one input source: a vertex file or --wps", EXIT_PARSE)
    if has_weights:
        if args.dual:
            raise CliError("--wps already builds the fan side; drop --dual", EXIT_PARSE)
        try:
            weights = [int(x) for x in args.wps.split(",")]
        except ValueError:
            raise CliError("--wps expects comma-separated integers", EXIT_PARSE) from None
        return wps_polytope(weights)
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {args.input}: {exc.strerror}", EXIT_PARSE) from None
    return LatticePolytope.from_vertices(parse_vertex_matrix(text))


def _pair_from(poly: LatticePolytope, dual: bool) -> ReflexivePair:
    if dual:
        return ReflexivePair.from_delta(poly)
    return ReflexivePair(poly)


def _ray_count(poly: LatticePolytope, dual: bool) -> int | None:
    """r: the fan-side polytope's vertex count, which for a dual-side input
    is its facet count. None when the input is not reflexive."""
    if not poly.is_reflexive():
        return None
    return len(poly.facets) if dual else len(poly.vertices)


def _input_hash(poly: LatticePolytope) -> str:
    return hashlib.sha256(format_vertex_matrix(poly.vertices).encode()).hexdigest()


def _ratio(p: int, q: int):
    """Exact JSON-safe scalar for p/q, q > 0: an int when q divides p,
    otherwise a \"p/q\" string in lowest terms."""
    g = math.gcd(p, q)
    p, q = p // g, q // g
    return p if q == 1 else f"{p}/{q}"


class _SectorTable:
    """Sector rows grouped by the cone or face they share: each group holds
    that cone's or face's columns and its sectors' box elements. A group's
    columns are rendered once; each row adds its element's age,
    coefficients and point."""

    def __init__(self, sectors, key, columns):
        runs = [list(run) for _, run in groupby(sectors, key)]
        self.groups = [(columns(run[0]), [s.element for s in run]) for run in runs]

    def rows(self, render, slot, age, brackets):
        """Each group's rows as a list of strings. render(row) is the text
        of a row whose age, coefficients and point are "\\0", which renders
        as slot; age renders an age, and brackets (open, separator, close)
        a list of numbers."""
        ratios = {}  # D -> the rendered c/D for c in range(D)
        start, sep, end = brackets
        for columns, elements in self.groups:
            row = {**columns, "age": "\0", "coefficients": "\0", "point": "\0"}
            a, b, c, d = render(row).split(slot)
            rows = []
            for e in elements:
                q = e.denominator
                if q not in ratios:
                    ratios[q] = [json.dumps(_ratio(p, q)) for p in range(q)]
                ratio = ratios[q]
                rows.append(
                    a + age(_ratio(sum(e.numerators), q)) + b
                    + start + sep.join([ratio[p] for p in e.numerators]) + end + c
                    + start + sep.join(map(str, e.point)) + end + d
                )
            yield rows


# -- subcommands ---------------------------------------------------------------

# name -> (handler, whether it takes the reflexive pair rather than the
# input polytope, help text, parser options); main builds the argument and
# calls handler(argument, args), which returns (payload, exit code)
_COMMANDS = {}


def _command(name, help_text, *, pair=True, **options):
    def register(handler):
        _COMMANDS[name] = (handler, pair, help_text, options)
        return handler

    return register


@_command("info", "structural summary")
def _cmd_info(pair, args):
    fan = normal_fan(pair)
    polar = pair.delta_polar
    counts = [len(polar.faces(d)) for d in range(polar.n)]
    payload = {
        "reflexive": True,
        "simplicial": fan.is_simplicial(),
        "l_delta": len(pair.delta.lattice_points()),
        "l_polar": len(polar.lattice_points()),
        "face_counts": counts,
        "vertices_delta": len(pair.delta.vertices),
    }
    return payload, EXIT_OK


@_command("reflexive", "test reflexivity (exit 2 when false)", pair=False)
def _cmd_reflexive(poly, args):
    if not poly.is_reflexive():
        return {"reflexive": False}, EXIT_NOT_REFLEXIVE
    _pair_from(poly, args.dual)  # audits the face lattice the fan reads
    return {"reflexive": True}, EXIT_OK


@_command("dual", "polar dual vertices (tsv output is a reusable vertex file)")
def _cmd_dual(pair, args):
    dual = pair.delta_polar if args.dual else pair.delta
    if args.format == "tsv":
        return format_vertex_matrix(dual.vertices), EXIT_OK
    return {"vertices": [list(v) for v in dual.vertices]}, EXIT_OK


@_command("faces", "face lattice with point counts", pair=False)
def _cmd_faces(poly, args):
    faces = []
    counts = []
    for d in range(poly.n):
        layer = poly.faces(d)
        counts.append(len(layer))
        for f in layer:
            faces.append(
                {
                    "dim": f.dim,
                    "vertex_ids": list(f.vertex_ids),
                    "n_points": len(f.lattice_points()),
                    "n_interior": len(f.interior_lattice_points()),
                }
            )
    return {"counts": counts, "faces": faces}, EXIT_OK


@_command("points", "lattice points of a dilate", pair=False, points=True)
def _cmd_points(poly, args):
    k = args.dilate
    if k < 1:
        raise CliError("--dilate must be a positive integer", EXIT_PARSE)
    if args.interior_only:
        pts = poly.interior_lattice_points(k)
    else:
        pts = poly.lattice_points(k)
    payload = {
        "dilate": k,
        "interior_only": bool(args.interior_only),
        "count": len(pts),
        "points": [list(p) for p in pts],
    }
    return payload, EXIT_OK


@_command("sectors-toric", "twisted sectors of the ambient toric variety")
def _cmd_sectors_toric(pair, args):
    sectors = toric_twisted_sectors(normal_fan(pair))
    columns = lambda s: {
        "generators": [list(g) for g in s.cone.generators],
        "group_order": s.group_order,
        "support_dim": s.support_dim,
    }
    return {"sectors": _SectorTable(sectors, attrgetter("cone"), columns)}, EXIT_OK


@_command("sectors-cy", "twisted sectors of the anticanonical hypersurface", force=True)
def _cmd_sectors_cy(pair, args):
    sectors = cy_twisted_sectors(pair, force=args.force)
    vertices = pair.delta_polar.vertices
    columns = lambda s: {
        "face_dim": s.face_dim,
        "face_vertices": [list(vertices[i]) for i in s.face_ids],
        "group_order": s.group_order,
        "components": s.components,
        "h_top": s.h_top,
    }
    return {"sectors": _SectorTable(sectors, attrgetter("face_ids"), columns)}, EXIT_OK


@_command("hodge", "orbifold Hodge numbers with audits", force=True)
def _cmd_hodge(pair, args):
    rep = hodge_report(pair, force=args.force)
    payload = {
        "h11": rep.h11_untwisted,
        "h11_orb": rep.h11_orb,
        "h21": rep.hn21_untwisted,
        "h21_orb": rep.hn21_orb,
        "l_delta": rep.l_delta,
        "l_polar": rep.l_polar,
        "age1_components": rep.age1_components,
        "n_sectors_cy": len(rep.sectors),
        "euler": rep.euler,
        "diamond": [list(row) for row in rep.diamond] if rep.diamond else None,
        "forced": rep.forced,
    }
    return payload, EXIT_OK


@_command("mirror", "compare against the vertex-swapped pair", force=True)
def _cmd_mirror(pair, args):
    return asdict(mirror_check(pair, force=args.force)), EXIT_OK


@_command("oracle-jacobian", "independent rank check", seed=True, force=True)
def _cmd_oracle_jacobian(pair, args):
    return asdict(jacobian_rank_check(pair, seed=args.seed, force=args.force)), EXIT_OK


@_command("wps", "emit the fan-side polytope of weighted projective space", weights=True)
def _cmd_wps(pair, args):
    # building the pair audited the face lattice
    poly = pair.delta_polar
    if args.format == "tsv" or args.format == "vertices":
        return format_vertex_matrix(poly.vertices), EXIT_OK
    return {"vertices": [list(v) for v in poly.vertices]}, EXIT_OK


# -- output rendering --------------------------------------------------------------


def _render_json(rows):
    """json.dumps(rows, sort_keys=True, indent=2) and a newline, with a
    sector table written one group of rows at a time."""
    table = rows.get("sectors")
    if not isinstance(table, _SectorTable):
        yield json.dumps(rows, sort_keys=True, indent=2) + "\n"
        return
    head, tail = json.dumps({**rows, "sectors": "\0"}, sort_keys=True, indent=2).split('"\\u0000"')
    yield head
    opening = "[\n"
    item = lambda row: "    " + json.dumps(row, sort_keys=True, indent=2).replace("\n", "\n    ")
    for items in table.rows(item, '"\\u0000"', json.dumps, ("[\n        ", ",\n        ", "\n      ]")):
        yield opening + ",\n".join(items)
        opening = ",\n"
    yield ("[]" if opening == "[\n" else "\n  ]") + tail + "\n"


def _tsv_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _tsv_line(key, entry: dict) -> str:
    return "\t".join([key] + [_tsv_scalar(entry[c]) for c in sorted(entry)]) + "\n"


def _render_tsv(rows):
    """Scalars as key-value lines, then the table (points, faces or
    sectors) one row per line under a header of its sorted columns."""
    tables = [k for k in ("points", "faces", "sectors") if isinstance(rows.get(k), (list, _SectorTable))]
    table_key = tables[0] if tables else None
    yield "".join(f"{key}\t{_tsv_scalar(rows[key])}\n" for key in sorted(rows) if key != table_key)
    table = rows.get(table_key)
    if isinstance(table, _SectorTable):
        if table.groups:
            yield "\t".join(["sectors", *sorted({*table.groups[0][0], "age", "coefficients", "point"})]) + "\n"
        for lines in table.rows(lambda row: _tsv_line("sectors", row), "\0", _tsv_scalar, ("[", ", ", "]")):
            yield "".join(lines)
    elif table and isinstance(table[0], dict):
        yield "\t".join([table_key] + sorted(table[0])) + "\n"
        yield "".join(_tsv_line(table_key, entry) for entry in table)
    elif table:
        yield "".join("\t".join(str(x) for x in entry) + "\n" for entry in table)


def _add_options(p, *, weights=False, seed=False, force=False, points=False):
    if weights:
        p.add_argument("weights", nargs="+", type=int)
        p.add_argument(
            "--format",
            choices=("json", "tsv", "vertices"),
            default="vertices",
            help="default is a reusable vertex matrix file",
        )
        return
    p.add_argument("input", nargs="?", help="vertex matrix file")
    p.add_argument("--wps", help="comma-separated weights instead of a file")
    p.add_argument(
        "--dual",
        action="store_true",
        help="read the input as the dual-side polytope",
    )
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if force:
        p.add_argument(
            "--force",
            action="store_true",
            help="compute even when the ambient dimension is below 4",
        )
    if points:
        p.add_argument("--interior-only", action="store_true")
        p.add_argument("--dilate", type=int, default=1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused."""
    parser = _Parser(
        prog="reflexorb",
        description="Twisted sectors and orbifold Hodge numbers of reflexive polytopes.",
    )
    parser.add_argument("--version", action="version", version=f"reflexorb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text, options) in _COMMANDS.items():
        _add_options(sub.add_parser(name, help=help_text), **options)
    return parser


# exception type -> exit code; a CliError carries its own
_EXIT_CODES = {
    VertexFileError: EXIT_PARSE,
    NotFullDimensionalError: EXIT_PARSE,
    NotReflexiveError: EXIT_NOT_REFLEXIVE,
    NotSimplicialError: EXIT_NOT_SIMPLICIAL,
    HypothesisError: EXIT_HYPOTHESIS,
    AuditError: EXIT_AUDIT,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        handler, takes_pair, _, _ = _COMMANDS[args.command]
        dual = getattr(args, "dual", False)
        poly = _load_polytope(args)
        payload, code = handler(_pair_from(poly, dual) if takes_pair else poly, args)
        if isinstance(payload, str):  # preformatted vertex matrix text
            sys.stdout.write(payload)
            return code
        rows = {
            "tool_version": __version__,
            "input_hash": _input_hash(poly),
            "n": poly.n,
            "r": _ray_count(poly, dual),
        }
        rows.update(payload)
        render = _render_tsv if args.format == "tsv" else _render_json
        # every sector and audit is settled; rows go out as they are rendered
        sys.stdout.writelines(render(rows))
        return code
    except (CliError, *_EXIT_CODES) as exc:
        print(f"reflexorb: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        return next(c for cls, c in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
