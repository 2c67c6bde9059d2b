"""Command-line front end.

Every command reads JSON (from --input FILE or standard input), dispatches to
the library, and writes deterministic JSON (or best-effort SVG) to --output
or standard output.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .core import (
    DomainError,
    TropMatrix,
    dumps,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
)
from .bipartite import (
    graph_from_json,
    is_coherent,
    is_support_set,
    matching_multifield,
    multifield_from_json,
    multifield_to_json,
    random_support_set,
    support_face_dimension,
)
from .plucker import (
    check_plucker,
    plucker_from_json,
    plucker_to_json,
    recover_matrix,
    stiefel_map,
)
from .arrangement import cell_point, complex_to_json, enumerate_covectors, facets_of_D, facets_to_json, skeleton
from .linspace import (
    bounded_skeleton,
    certificate_to_json,
    decompose,
    in_bounded_part,
    in_L,
)


def _read_input(args):
    path = getattr(args, "input", "-") or "-"
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise UsageError(f"cannot read input: {exc}")
    except ValueError as exc:  # JSONDecodeError, or an integer past the int/str digit limit
        raise UsageError(f"invalid JSON input: {exc}")


class UsageError(Exception):
    pass


def _matrix_and_vector(obj):
    if not isinstance(obj, dict) or "matrix" not in obj or "vector" not in obj:
        raise UsageError("expected {'matrix': ..., 'vector': ...}")
    return matrix_from_json(obj["matrix"]), vector_from_json(obj["vector"])


def _budget_kwargs(args):
    return {} if args.budget is None else {"budget": args.budget}


# ---------------------------------------------------------------------------
# Command handlers: each returns SVG text as a str, or a JSON payload
# ---------------------------------------------------------------------------

def cmd_stiefel(args):
    A = matrix_from_json(_read_input(args))
    return plucker_to_json(stiefel_map(A))


def cmd_plucker_check(args):
    p = plucker_from_json(_read_input(args))
    return {"is_plucker": check_plucker(p)}


def cmd_multifield(args):
    A = matrix_from_json(_read_input(args))
    return multifield_to_json(matching_multifield(A))


def cmd_coherent(args):
    mf = multifield_from_json(_read_input(args))
    witness = is_coherent(mf)
    if witness is None:
        return {"coherent": False}
    return {"coherent": True, "witness": matrix_to_json(witness)}


def cmd_support_set(args):
    G = graph_from_json(_read_input(args))
    return {
        "is_support_set": is_support_set(G),
        "h1": support_face_dimension(G),
    }


def cmd_covectors(args):
    A = matrix_from_json(_read_input(args))
    if args.format == "svg":
        return _svg_arrangement(A, args)
    return complex_to_json(enumerate_covectors(A, **_budget_kwargs(args)))


def cmd_facets(args):
    A = matrix_from_json(_read_input(args))
    return facets_to_json(facets_of_D(A))


def cmd_member(args):
    A, y = _matrix_and_vector(_read_input(args))
    return {"in_L": in_L(A, y)}


def cmd_decompose(args):
    A, y = _matrix_and_vector(_read_input(args))
    cert = decompose(A, y)
    if cert is None:
        return {"in_L": False}
    return {"in_L": True, "certificate": certificate_to_json(cert)}


def cmd_bounded(args):
    obj = _read_input(args)
    if args.format == "svg":
        A = matrix_from_json(obj["matrix"] if isinstance(obj, dict) and "matrix" in obj else obj)
        return _svg_tree(A)  # the default cell budget: bounded has no --budget
    A, y = _matrix_and_vector(obj)
    return {"in_bounded_part": in_bounded_part(A, y)}


def cmd_recover(args):
    obj = _read_input(args)
    if not isinstance(obj, dict) or "plucker" not in obj or "support" not in obj:
        raise UsageError("expected {'plucker': ..., 'support': ...}")
    p = plucker_from_json(obj["plucker"])
    G = graph_from_json(obj["support"])
    return matrix_to_json(recover_matrix(p, G))


GEN_BUDGET = 10 ** 6  # d·n entries gen may draw, or d³n, the work of one support-set draw


def cmd_gen(args):
    if args.d < 1 or args.n < args.d:
        raise DomainError("BAD_SHAPE", "need 1 <= d <= n")
    rng = random.Random(args.seed)
    lo, hi = args.min, args.max
    if lo > hi:
        raise UsageError("--min must not exceed --max")
    d, n = args.d, args.n
    size = d ** 3 * n if args.mode == "support-set" else d * n
    if size > GEN_BUDGET:
        raise DomainError("BUDGET_EXCEEDED", f"gen --mode {args.mode} on {d}x{n} has size {size}, budget {GEN_BUDGET}")
    if args.mode == "support-set":
        edges = random_support_set(rng, d, n, **_budget_kwargs(args)).edges
        finite = lambda i, j: (i, j) in edges
    else:  # dense, or pointed: an identity block on columns [d], dense on the rest
        finite = lambda i, j: args.mode == "dense" or j == i or j > d
    entries = [[rng.randint(lo, hi) if finite(i, j) else "inf" for j in range(1, n + 1)] for i in range(1, d + 1)]
    return matrix_to_json(TropMatrix(entries))


def cmd_render(args):
    A = matrix_from_json(_read_input(args))
    if args.kind == "tree":
        return _svg_tree(A, **_budget_kwargs(args))
    return _svg_arrangement(A, args)


# ---------------------------------------------------------------------------
# Best-effort SVG (exact integer pixel arithmetic only)
# ---------------------------------------------------------------------------

def _px(value, lo, span, size, margin):
    """Map an exact rational into integer pixel space."""
    if span == 0:
        return margin + size // 2
    t = (Fraction(value) - lo) / span  # in [0, 1]
    return margin + int(t * size)


def _svg_document(width, height, body):
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    return head + "".join(body) + "</svg>"


def _svg_arrangement(A, args):
    if A.d > 3:
        raise DomainError("BAD_FORMAT", "arrangement rendering requires d <= 3")
    tc = enumerate_covectors(A, **_budget_kwargs(args))
    size, margin = 400, 40
    # gauge-fixed coordinates: use (x_2, x_3) (missing coordinates are 0)
    pts = {}
    for cell in tc:
        x = cell_point(A, cell.covector)
        u = x[1] if A.d >= 2 else 0
        v = x[2] if A.d >= 3 else 0
        pts[cell.covector] = (u, v)
    us = [u for u, _ in pts.values()]
    vs = [v for _, v in pts.values()]
    ulo, uspan = min(us), max(us) - min(us)
    vlo, vspan = min(vs), max(vs) - min(vs)
    body = []
    for cell, ends in skeleton(tc)[1]:
        mid = pts[cell.covector]
        ends = [pts[v.covector] for v in ends]
        if len(ends) == 2:
            (u1, v1), (u2, v2) = ends
        elif len(ends) == 1:
            (u1, v1) = ends[0]
            # extend the ray through the relative-interior witness
            u2 = mid[0] + (mid[0] - u1)
            v2 = mid[1] + (mid[1] - v1)
        else:
            continue
        body.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
            % (
                _px(u1, ulo, uspan, size, margin),
                _px(v1, vlo, vspan, size, margin),
                _px(u2, ulo, uspan, size, margin),
                _px(v2, vlo, vspan, size, margin),
            )
        )
    for cell in tc:
        u, v = pts[cell.covector]
        x = _px(u, ulo, uspan, size, margin)
        y = _px(v, vlo, vspan, size, margin)
        if cell.dim == 0:
            body.append('<circle cx="%d" cy="%d" r="4" fill="black"/>' % (x, y))
        label = "".join(
            "{" + ",".join(str(i) for i in I) + "}" for I in cell.covector
        )
        body.append(
            '<text x="%d" y="%d" font-size="9">%s</text>' % (x + 6, y - 6, label)
        )
    return _svg_document(size + 2 * margin, size + 2 * margin, body)


def _svg_tree(A, **budget):
    if A.d != 2:
        raise DomainError("BAD_FORMAT", "tree rendering requires d = 2")
    verts, segs = bounded_skeleton(A, **budget)
    order = {v: idx for idx, v in enumerate(verts)}
    step, y0, margin = 90, 60, 40
    body = []
    for _, ends in segs:
        if len(ends) == 2:
            x1 = margin + step * order[ends[0]]
            x2 = margin + step * order[ends[1]]
            body.append(
                '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
                % (x1, y0, x2, y0)
            )
    for k in range(len(verts)):
        x = margin + step * k
        body.append('<circle cx="%d" cy="%d" r="4" fill="black"/>' % (x, y0))
    width = 2 * margin + step * max(len(verts) - 1, 0)
    return _svg_document(max(width, 2 * margin), 2 * y0, body)


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

HANDLERS = {
    "stiefel": cmd_stiefel,
    "plucker-check": cmd_plucker_check,
    "multifield": cmd_multifield,
    "coherent": cmd_coherent,
    "support-set": cmd_support_set,
    "covectors": cmd_covectors,
    "facets": cmd_facets,
    "member": cmd_member,
    "decompose": cmd_decompose,
    "bounded": cmd_bounded,
    "recover": cmd_recover,
    "gen": cmd_gen,
    "render": cmd_render,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tropstiefel",
        description="Exact tropical Stiefel map toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        if name != "gen":
            p.add_argument("--input", default="-", help="input JSON file or - for stdin")
        p.add_argument("--output", default=None)
        if name in ("covectors", "render", "gen"):
            p.add_argument("--budget", type=int, default=None)
        if name in ("covectors", "bounded"):
            p.add_argument("--format", choices=("json", "svg"), default="json")
        if name == "gen":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("d", type=int)
            p.add_argument("n", type=int)
            p.add_argument(
                "--mode", choices=("dense", "support-set", "pointed"), default="dense"
            )
            p.add_argument("--min", type=int, default=0)
            p.add_argument("--max", type=int, default=9)
        if name == "render":
            p.add_argument("--kind", choices=("arrangement", "tree"), default="arrangement")
    return parser


def _emit(args, payload):
    text = payload if isinstance(payload, str) else dumps(payload)
    out = getattr(args, "output", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write output: {exc}")
    else:
        sys.stdout.write(text + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        try:
            payload, code = HANDLERS[args.command](args), 0
        except DomainError as exc:
            payload, code = {"error": exc.code}, 1
        _emit(args, payload)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
