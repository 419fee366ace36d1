"""Command-line interface.

One binary with subcommands; every run writes a JSON report (stdout or
--output).  The subcommands that produce a drawing (gen-fixture,
gen-hexgrid, lift-sphere) print it to stdout, so it pipes into the next
command; with --output they write it there, and their report then goes
to stdout.  Rational values serialize as 'p/q'
strings, quadratic irrationals as field dicts.
Exit status: 0 success (also --help), 1 validation error, including a
command-line usage error or a path that cannot be read or written, 2
internal invariant failure.  An error report whose --output path cannot be
written goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import List, Optional

from . import counting, generators, linking, pipeline, stairs
from .drawing import (Graph, SpatialDrawing, _json_object, _list_from_doc,
                      _points_from_doc, _pos_to_doc, decode_drawing,
                      encode_drawing)
from .errors import (DegenerateInput, DegeneratePosition, NotDisjoint,
                     PreconditionViolated, RetryExhausted, ValidationError)
from .geometry import PluckerLine
from .linking import PolygonalCycle
from .scalars import rat_to_str, scalar_to_json

log = logging.getLogger("spacecross")


def _setup_logging():
    level = os.environ.get("SPACECROSSING_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _read_doc(path: Optional[str]) -> dict:
    """The JSON object in the file at ``path``, or on stdin for None or -."""
    if path is None or path == "-":
        return _json_object(sys.stdin.read())
    with open(path, "rb") as fh:
        return _json_object(fh.read())


def _write_report(doc, path: Optional[str]):
    data = json.dumps(doc, indent=1)
    if path is None or path == "-":
        print(data)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data + "\n")


def _emit_drawing(drawing: SpatialDrawing, args, **report) -> dict:
    """Print ``drawing`` and return no report; or, with --output, write it
    there and return the report, which then goes to stdout."""
    text = encode_drawing(drawing).decode("utf-8")
    path = args.output
    if not path or path == "-":
        print(text)
        return {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    args.output = None
    return {"written": path, **report}


def _line_doc(line: PluckerLine):
    return {"direction": [scalar_to_json(c) for c in line.direction],
            "moment": [scalar_to_json(c) for c in line.moment]}


def _witness_doc(w: counting.CrossingWitness):
    return {
        "edges": [list(e) for e in w.edges],
        "line": _line_doc(w.line),
        "contacts": [{"edge": list(e), "segment": s,
                      "parameter": scalar_to_json(u)}
                     for e, s, u in w.contacts],
    }


def _cycles_from_doc(doc) -> List[PolygonalCycle]:
    cycles = _list_from_doc(doc["cycles"], "cycles")
    return [PolygonalCycle(tuple(_points_from_doc(cyc, f"cycles[{i}]")))
            for i, cyc in enumerate(cycles)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_count_crossings(args) -> dict:
    d = decode_drawing(_read_doc(args.input))
    rep = counting.count_line_crossings(d, args.k,
                                        want_witnesses=args.witnesses)
    doc = {"k": rep.k, "count": rep.count,
           "tuples_total": rep.tuples_total,
           "tuples_after_prefilter": rep.tuples_after_prefilter,
           "elapsed": rep.elapsed,
           "stages": [{"name": name, "rows_in": rows_in, "rows_out": rows_out,
                       "seconds": seconds}
                      for name, rows_in, rows_out, seconds in rep.stages]}
    if rep.witnesses is not None:
        doc["witnesses"] = [_witness_doc(w) for w in rep.witnesses]
    return doc


def cmd_count_planar(args) -> dict:
    d = decode_drawing(_read_doc(args.input))
    return {"count": counting.count_planar_crossings(d)}


def cmd_lift_sphere(args) -> dict:
    d = decode_drawing(_read_doc(args.input))
    lifted = counting.lift_to_sphere(d, args.subdivision, seed=args.seed)
    return _emit_drawing(lifted, args, subdivision=args.subdivision)


def cmd_gen_stair(args) -> dict:
    n, m = args.n, args.m
    count, by_r = stairs.count_candidate_quadruples(n, m, breakdown=True)
    b105 = stairs.crossing_bound_105(n, m)
    b6720 = stairs.crossing_bound_explicit(n, m)
    doc = {"n": n, "m": m, "D": stairs.interval_width(n, m), "count": count,
           "by_components": {str(r): c for r, c in by_r.items()},
           "bound_105": b105, "bound_6720": rat_to_str(b6720)}
    if args.check_bounds:
        doc["pass"] = bool(count <= b105 and count <= b6720)
    return doc


def cmd_gen_hexgrid(args) -> dict:
    hc = pipeline.hexgrid_construction(args.k, args.subdivision, seed=args.seed)
    return _emit_drawing(hc.drawing, args, k=args.k,
                         subdivision=args.subdivision, vertices=hc.graph.n,
                         edges=hc.graph.m, special_edge=list(hc.special_edge))


def cmd_linking(args) -> dict:
    cycles = _cycles_from_doc(_read_doc(args.input))
    if len(cycles) != 2:
        raise ValidationError(f"{len(cycles)} cycles, not 2", "cycles")
    return {"lk": linking.linking_number(*cycles)}


def cmd_conway_gordon(args) -> dict:
    if args.input:
        pts = _points_from_doc(_read_doc(args.input)["points"], "points")
    else:
        pts = generators.random_six_points(args.seed)
    res = linking.conway_gordon_check(pts)
    return {"odd_pair": [list(res.odd_pair[0]), list(res.odd_pair[1])],
            "parity_sum": res.parity_sum,
            "linking_numbers": [
                {"triangles": [list(a), list(b)], "lk": v}
                for (a, b), v in sorted(res.linking_numbers.items())]}


def cmd_transversal_4cycles(args) -> dict:
    cycles = _cycles_from_doc(_read_doc(args.input))
    found = linking.transversal_through_cycles(cycles)
    if found is None:
        return {"found": False}
    return {"found": True, "line": _line_doc(found[1].line)}


def cmd_witness_pipeline(args) -> dict:
    d = decode_drawing(_read_doc(args.input))
    ws = pipeline.boost_witness_pipeline(d, seed=args.seed, budget=args.budget)
    return {"witnesses": [_witness_doc(w) for w in ws], "count": len(ws)}


def cmd_order_types(args) -> dict:
    types = stairs.enumerate_order_types()
    by_comp = {}
    for t in types:
        by_comp[t.components] = by_comp.get(t.components, 0) + 1
    return {"total": len(types),
            "by_components": {str(k): v for k, v in sorted(by_comp.items())}}


def cmd_gen_fixture(args) -> dict:
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}", "params")
    obj = generators.seeded_generators(args.kind, params, args.seed)
    if isinstance(obj, SpatialDrawing):
        return _emit_drawing(obj, args, kind=args.kind)
    if isinstance(obj, tuple) and obj and isinstance(obj[0], PolygonalCycle):
        return {"cycles": [[_pos_to_doc(p) for p in c.points] for c in obj]}
    if isinstance(obj, list):
        return {"points": [_pos_to_doc(p) for p in obj]}
    if isinstance(obj, Graph):
        return {"n": obj.n, "edges": [list(e) for e in obj.edges]}
    raise ValidationError(f"cannot serialize generator output {type(obj)}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, where argparse exits 2, the status kept
    for internal invariant failures.  Subcommand parsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="spacecross",
        description="space crossing counts, linking numbers and "
                    "stair-convex constructions")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, input_arg=True):
        if input_arg:
            p.add_argument("--input", help="input document path (- for stdin)")
        p.add_argument("--output", help="report path (default stdout)")
        return p

    def seed(p):
        p.add_argument("--seed", type=int, default=0)
        return p

    def subdivision(p):
        p.add_argument("--subdivision", type=int, default=8)
        return p

    p = common(sub.add_parser("count-crossings"))
    p.add_argument("--k", type=int, choices=[3, 4], default=4)
    p.add_argument("--witnesses", action="store_true")
    p.set_defaults(func=cmd_count_crossings)

    common(sub.add_parser("count-planar")).set_defaults(func=cmd_count_planar)
    p = subdivision(seed(common(sub.add_parser("lift-sphere"))))
    p.set_defaults(func=cmd_lift_sphere)

    p = common(sub.add_parser("gen-stair"), input_arg=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--check-bounds", action="store_true")
    p.set_defaults(func=cmd_gen_stair)

    p = subdivision(seed(common(sub.add_parser("gen-hexgrid"), input_arg=False)))
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_gen_hexgrid)

    common(sub.add_parser("linking")).set_defaults(func=cmd_linking)
    seed(common(sub.add_parser("conway-gordon"))).set_defaults(
        func=cmd_conway_gordon)
    common(sub.add_parser("transversal-4cycles")).set_defaults(
        func=cmd_transversal_4cycles)
    p = seed(common(sub.add_parser("witness-pipeline")))
    p.add_argument("--budget", type=int, default=100000)
    p.set_defaults(func=cmd_witness_pipeline)
    common(sub.add_parser("order-types"), input_arg=False).set_defaults(
        func=cmd_order_types)

    p = seed(common(sub.add_parser("gen-fixture"), input_arg=False))
    p.add_argument("--kind", required=True)
    p.add_argument("--params", help="JSON parameter object")
    p.set_defaults(func=cmd_gen_fixture)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    _setup_logging()
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        doc = args.func(args)
        if doc:
            _write_report(doc, getattr(args, "output", None))
        return 0
    except (ValidationError, DegenerateInput, NotDisjoint, DegeneratePosition,
            PreconditionViolated, OSError, json.JSONDecodeError,
            KeyError) as exc:
        log.error("validation failure: %s", exc)
        status, report = 1, {"error": str(exc), "code": type(exc).__name__}
    except (AssertionError, RetryExhausted) as exc:
        log.error("internal invariant failure: %s", exc)
        status, report = 2, {"error": str(exc), "code": type(exc).__name__}
    try:
        _write_report(report, getattr(args, "output", None))
    except OSError:
        # the report path itself cannot be written
        _write_report(report, None)
    return status


if __name__ == "__main__":
    sys.exit(main())
