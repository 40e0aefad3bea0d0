"""Timing wrappers installed from outside the program, and per-layer metrics.

A Tracer replaces each module's binding of a traced function (for example
`reflexorb.fan.smith_normal_form` and `reflexorb.cli.hodge_report` are
separate bindings of their functions) and the public methods of
`LatticePolytope`, `Face` and `ReflexivePair` with wrappers that record a
span: id, name, binding module, start, end, parent span and command id.
Spans stay in memory until the run writes them out. `restore` puts every
original back.

Self time is a span's duration minus the time its child spans cover. Worker
threads (the fan's pool) start spans whose parent is the innermost span open
on the command's own thread; while several spans without open children run
at once, each is charged an equal share of the interval. So the self times
of a run add up to exactly the time covered by its command spans, never more
than its wall time.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from time import perf_counter

# (module, class or None, attribute, span name). A name that is missing in
# the program is skipped, so a refactor that drops one leaves the rest
# working and its metrics read 0.
TARGETS = (
    ("reflexorb.polytope", "LatticePolytope", "from_vertices", "polytope.hull"),
    ("reflexorb.polytope", "LatticePolytope", "polar_dual", "polytope.pair"),
    ("reflexorb.polytope", "LatticePolytope", "lattice_points", "polytope.points"),
    ("reflexorb.polytope", "LatticePolytope", "interior_lattice_points", "polytope.points"),
    ("reflexorb.polytope", "LatticePolytope", "faces", "polytope.faces"),
    ("reflexorb.polytope", "LatticePolytope", "proper_faces", "polytope.faces"),
    ("reflexorb.polytope", "LatticePolytope", "face_by_vertex_ids", "polytope.faces"),
    ("reflexorb.polytope", "Face", "lattice_points", "polytope.face_points"),
    ("reflexorb.polytope", "Face", "interior_lattice_points", "polytope.face_points"),
    ("reflexorb.polytope", "ReflexivePair", "__init__", "polytope.pair"),
    ("reflexorb.polytope", "ReflexivePair", "dual_face", "polytope.faces"),
    ("reflexorb.polytope", "ReflexivePair", "dual_face_of_delta", "polytope.faces"),
    ("reflexorb.polytope", None, "parse_vertex_matrix", "cli.parse"),
    ("reflexorb.fan", None, "normal_fan", "fan.sectors"),
    ("reflexorb.fan", None, "toric_twisted_sectors", "fan.sectors"),
    ("reflexorb.fan", None, "box_elements", "fan.box"),
    ("reflexorb.fan", None, "quotient_group_order", "fan.group_order"),
    ("reflexorb.hodge", None, "cy_twisted_sectors", "hodge.sectors"),
    ("reflexorb.hodge", None, "hodge_report", "hodge.formulas"),
    ("reflexorb.hodge", None, "h11_untwisted", "hodge.formulas"),
    ("reflexorb.hodge", None, "h11_orb", "hodge.formulas"),
    ("reflexorb.hodge", None, "hn21_untwisted", "hodge.formulas"),
    ("reflexorb.hodge", None, "hn21_orb", "hodge.formulas"),
    ("reflexorb.hodge", None, "mirror_check", "hodge.mirror"),
    ("reflexorb.jacobian", None, "jacobian_rank_check", "jacobian.check"),
    ("reflexorb.jacobian", None, "draw_coefficients", "jacobian.assemble"),
    ("reflexorb.jacobian", None, "assemble_matrix", "jacobian.assemble"),
    ("reflexorb.linalg", None, "rational_rank", "linalg.rank"),
    ("reflexorb.linalg", None, "smith_normal_form", "linalg.snf"),
)

# span name -> metric holding its self time; span name -> metric counting it
SELF_TIME = {
    "polytope.hull": "polytope.hull_s",
    "polytope.pair": "polytope.pair_s",
    "polytope.points": "polytope.points_s",
    "polytope.faces": "polytope.faces_s",
    "polytope.face_points": "polytope.face_points_s",
    "fan.box": "fan.box_s",
    "fan.group_order": "fan.group_order_s",
    "fan.sectors": "fan.sectors_s",
    "hodge.sectors": "hodge.sectors_s",
    "hodge.formulas": "hodge.formulas_s",
    "hodge.mirror": "hodge.mirror_s",
    "jacobian.assemble": "jacobian.assemble_s",
    "linalg.rank": "linalg.rank_s",
    "linalg.snf": "linalg.snf_s",
    "cli.parse": "cli.parse_s",
    "cli.main": "cli.render_s",
}
CALLS = {
    "polytope.hull": "polytope.hull_calls",
    "polytope.face_points": "polytope.face_points_calls",
    "fan.box": "fan.box_calls",
    "linalg.rank": "linalg.rank_calls",
    "linalg.snf": "linalg.snf_calls",
}
COUNTS = (
    "polytope.points_scanned",
    "polytope.points_kept",
    "fan.cones",
    "fan.box_elements",
    "jacobian.matrix_rows",
    "jacobian.matrix_cols",
    "jacobian.draws",
    "cli.output_bytes",
)
DERIVED = ("polytope.points_yield", "jacobian.rank_s", "trace.overhead_ratio")
PER_LAYER = tuple(sorted({*SELF_TIME.values(), *CALLS.values(), *COUNTS, *DERIVED}))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, via, start, end, parent, cmd, counts]
        self._ids = itertools.count()
        self._local = threading.local()
        self._command_stack: list = []
        self._cmd = None
        self._scanned: dict = {}
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, via):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif self._command_stack:  # a worker thread started by the command
            parent = self._command_stack[-1][0]
        else:
            parent = None
        rec = [next(self._ids), name, via, perf_counter(), None, parent, self._cmd, None]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def _close(self, rec):
        rec[4] = perf_counter()
        self._stack().pop()

    def command(self, cmd_id, fn, *args):
        """Run fn(*args) as command cmd_id under a root span named cli.main."""
        self._cmd = cmd_id
        self._command_stack = self._stack()
        rec = self._open("cli.main", "bench")
        try:
            return fn(*args)
        finally:
            self._close(rec)
            self._cmd = None
            self._scanned.clear()

    def _wrap(self, fn, name, via, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer._open(name, via)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if counter is not None:
                rec[7] = counter(tracer, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -------------------------------------------------------------

    def install(self):
        """Wrap every target in the loaded reflexorb modules."""
        modules = {
            name.rsplit(".", 1)[-1]: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "reflexorb" or name.startswith("reflexorb."))
        }
        for modname, clsname, attr, span in TARGETS:
            owner = sys.modules.get(modname)
            if owner is None:
                continue
            counter = _COUNTERS.get((clsname, attr))
            if clsname is not None:
                cls = getattr(owner, clsname, None)
                raw = vars(cls).get(attr) if cls is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, span, modname.rsplit(".", 1)[-1], counter))
                else:
                    new = self._wrap(raw, span, modname.rsplit(".", 1)[-1], counter)
                setattr(cls, attr, new)
                self._patches.append((cls, attr, raw))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            for via, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, self._wrap(fn, span, via, counter))
                        self._patches.append((mod, key, fn))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------------

    def dump(self, path):
        """Write the spans as JSON lines: id, name, via, start, end, parent,
        command id and counts."""
        keys = ("id", "name", "via", "start", "end", "parent", "cmd", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec)), sort_keys=True) + "\n")


def _count_points(tracer, args, kwargs, result):
    self = args[0]
    k = args[1] if len(args) > 1 else kwargs.get("k", 1)
    key = (id(self), k)
    if key in tracer._scanned:  # served from the polytope's cache
        return None
    tracer._scanned[key] = self  # holds the object so its id is not reused
    scanned = 1
    for i in range(len(self.vertices[0])):
        scanned *= (max(v[i] for v in self.vertices) - min(v[i] for v in self.vertices)) * k + 1
    return {"polytope.points_scanned": scanned, "polytope.points_kept": len(result)}


def _count_cones(tracer, args, kwargs, result):
    return {"fan.cones": len(result.cones)}


def _count_box(tracer, args, kwargs, result):
    return {"fan.box_elements": len(result)}


def _count_matrix(tracer, args, kwargs, result):
    return {
        "jacobian.matrix_rows": len(result),
        "jacobian.matrix_cols": len(result[0]) if result else 0,
        "jacobian.draws": 1,
    }


_COUNTERS = {
    ("LatticePolytope", "lattice_points"): _count_points,
    (None, "normal_fan"): _count_cones,
    (None, "box_elements"): _count_box,
    (None, "assemble_matrix"): _count_matrix,
}


def self_times(spans) -> dict:
    """Self time of every span by id (see the module docstring)."""
    parent = {rec[0]: rec[5] for rec in spans}
    events = []
    for rec in spans:
        if rec[4] > rec[3]:  # a span of zero length covers no time
            events.append((rec[3], 1, rec[0]))
            events.append((rec[4], 0, -rec[0]))
    # at equal times: ends before starts, inner ends first, outer starts first
    events.sort()
    active: set = set()
    open_children: dict = {}
    leaves: set = set()
    out = dict.fromkeys(parent, 0.0)
    prev = None
    for t, is_start, key in events:
        if leaves and prev is not None and t > prev:
            share = (t - prev) / len(leaves)
            for sid in leaves:
                out[sid] += share
        prev = t
        sid = key if is_start else -key
        p = parent[sid]
        if is_start:
            if p in active:
                open_children[p] = open_children.get(p, 0) + 1
                leaves.discard(p)
            active.add(sid)
            leaves.add(sid)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if p in active:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return out


def layer_metrics(spans) -> dict:
    """Per-layer totals over the given spans: self seconds, call counts and
    the counts the wrappers recorded. Metrics with no spans read 0."""
    own = self_times(spans)
    out = dict.fromkeys(PER_LAYER, 0)
    for rec in spans:
        sid, name, via = rec[0], rec[1], rec[2]
        if name in SELF_TIME:
            out[SELF_TIME[name]] += own[sid]
        if name in CALLS:
            out[CALLS[name]] += 1
        if name == "linalg.rank" and via == "jacobian":
            out["jacobian.rank_s"] += own[sid]
        for key, value in (rec[7] or {}).items():
            out[key] += value
    return out
