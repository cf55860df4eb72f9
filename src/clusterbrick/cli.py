"""Command line front end: construction, computation, verification, JSON.

Exit codes: 0 success, 1 a verification check failed, 2 malformed input,
3 a resource limit was reached.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cluster import c_vector, d_vector, format_fpoly, format_laurent, g_vector
from .errors import ClusterBrickError, ResourceLimit
from .polytope import LatticePolytope
from .roots import CartanMatrix, cartan_of_type, positive_roots, \
    weight_diff_to_root_coords
from .subword import (antigreedy_facet, brick_vector, build_complex,
                      enumerate_facets_with_tables)
from .typea import (diagonal_of_root, enumerate_tpaths, f_poly_via_tpaths,
                    monomial_of_tpath, triangulation_of_coxeter)
from .verify import build_correspondence, run_checks, type_label

_BIG = 1 << 63


def _jsonable(obj):
    """Recursively convert to plain JSON types, stringifying integers that
    do not fit in 64 bits so no consumer silently rounds them."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, int):
        return obj if -_BIG <= obj < _BIG else str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonable(x) for x in items]
    return str(obj)


def _emit(path: str | None, payload: dict) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_jsonable(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")


def root_string(v) -> str:
    """Human form of a root-coordinate vector, such as "α1+2α2-α3"."""
    parts = []
    for t, x in enumerate(v):
        if x == 0:
            continue
        mag = abs(x)
        body = f"α{t + 1}" if mag == 1 else f"{mag}α{t + 1}"
        parts.append(("-" if x < 0 else "+", body))
    if not parts:
        return "0"
    head = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    return head + "".join(sign + body for sign, body in parts[1:])


def _natural(text: str, flag: str) -> int:
    """`text` as an int when, stripped of surrounding spaces, it is ASCII
    digits; int() alone would also take signs, underscores and other
    scripts' digits."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{flag} expects ASCII digits, got {text!r}")
    return int(digits)


def _parse_cartan(args) -> CartanMatrix:
    if args.cartan is not None:
        if args.type is not None:
            raise ValueError("give either --type or --cartan, not both")
        if args.rank is not None:
            raise ValueError("--rank goes with a bare --type letter, not with --cartan")
        with open(args.cartan, encoding="utf-8") as handle:
            rows = json.load(handle)
        return CartanMatrix(rows)
    if args.type is None:
        raise ValueError("one of --type or --cartan is required")
    label = args.type.strip().upper()
    family, tail = label[:1], label[1:]
    rank = None if args.rank is None else _natural(args.rank, "--rank")
    if tail:
        type_rank = _natural(tail, "--type")
        if rank is not None and rank != type_rank:
            raise ValueError(f"--type {args.type} conflicts with --rank {args.rank}")
        rank = type_rank
    elif rank is None:
        raise ValueError("--rank is required when --type is a bare family letter")
    return cartan_of_type(family, rank)


def _parse_coxeter(args, n: int):
    if args.coxeter is None:
        return tuple(range(1, n + 1))
    try:
        word = tuple(_natural(x, "--coxeter") for x in args.coxeter.split(","))
    except ValueError:
        raise ValueError(f"--coxeter must be comma-separated integers, got {args.coxeter!r}")
    if sorted(word) != list(range(1, n + 1)):
        raise ValueError(f"--coxeter must be a permutation of 1..{n}, got {word}")
    return word


def _cmd_facets(args) -> int:
    cartan = _parse_cartan(args)
    c = _parse_coxeter(args, cartan.n)
    complex_ = build_complex(cartan, c)
    facets = sorted(enumerate_facets_with_tables(complex_))
    print(f"type {type_label(cartan)}, coxeter {','.join(map(str, c))}")
    print(f"word {' '.join(map(str, complex_.word))}")
    print(f"{len(facets)} facets")
    for facet in facets:
        print(" ".join(f"{i:3d}" for i in facet))
    _emit(args.emit_json, {
        "type": type_label(cartan), "coxeter": c, "word": complex_.word,
        "facets": facets})
    return 0


def _cmd_seeds(args) -> int:
    cartan = _parse_cartan(args)
    c = _parse_coxeter(args, cartan.n)
    corr = build_correspondence(cartan, c)
    n = corr.complex_.n
    facets = sorted(corr.nodes)
    print(f"type {type_label(cartan)}, coxeter {','.join(map(str, c))}")
    print(f"{len(facets)} seeds")
    rows = []
    for facet in facets:
        node = corr.nodes[facet]
        variables = [format_laurent(v, n) for v in node.seed.variables]
        print(f"facet {facet}")
        for s, text in enumerate(variables, start=1):
            print(f"  slot {s}: {text}")
        rows.append({"facet": facet, "matrix": node.seed.matrix,
                     "variables": variables})
    _emit(args.emit_json, {
        "type": type_label(cartan), "coxeter": c, "seeds": rows})
    return 0


def _variable_summaries(cartan: CartanMatrix, c):
    """One record per positive root: F, g, a representative c-vector from
    the first enumerated seed holding the variable, and d."""
    corr = build_correspondence(cartan, c)
    complex_ = corr.complex_
    n = complex_.n
    first_c = {}
    for facet, node in corr.nodes.items():
        for i in facet:
            if i <= n:
                continue
            beta = complex_.pos_root[i - 1]
            if beta not in first_c:
                first_c[beta] = c_vector(node.seed, node.pos_to_slot[i])
    out = []
    for beta in positive_roots(cartan):
        var = corr.variables[beta]
        out.append({
            "root": beta, "root_name": root_string(beta),
            "F": format_fpoly(corr.f_polynomials[beta]),
            "g": g_vector(var, n), "c": first_c[beta],
            "d": d_vector(var, n)})
    return out


def _cmd_fpoly(args) -> int:
    cartan = _parse_cartan(args)
    c = _parse_coxeter(args, cartan.n)
    rows = _variable_summaries(cartan, c)
    print(f"type {type_label(cartan)}, coxeter {','.join(map(str, c))}")
    for row in rows:
        print(f"root {row['root']} = {row['root_name']}")
        print(f"  F = {row['F']}")
        print(f"  g = {row['g']}   c = {row['c']} ({root_string(row['c'])})"
              f"   d = {row['d']}")
    _emit(args.emit_json, {
        "type": type_label(cartan), "coxeter": c, "variables": rows})
    return 0


def _cmd_brick(args) -> int:
    cartan = _parse_cartan(args)
    c = _parse_coxeter(args, cartan.n)
    complex_ = build_complex(cartan, c)
    tables = enumerate_facets_with_tables(complex_)
    bricks = {facet: brick_vector(complex_, facet, table)
              for facet, table in tables.items()}
    hull = LatticePolytope(bricks.values())
    ag = bricks[antigreedy_facet(complex_)]
    print(f"type {type_label(cartan)}, coxeter {','.join(map(str, c))}")
    print(f"{len(bricks)} brick vectors, {len(hull.vertices)} vertices")
    for facet in sorted(bricks):
        marker = " *" if bricks[facet] in hull.vertices else ""
        print(f"facet {facet}: b = {bricks[facet]}{marker}")
    print(f"antigreedy b = {ag}")
    shifted = [weight_diff_to_root_coords(cartan, v, ag)
               for v in hull.vertices]
    print("vertices shifted by -b(antigreedy), root coordinates:")
    for v in shifted:
        print(f"  {v} = {root_string(v)}")
    _emit(args.emit_json, {
        "type": type_label(cartan), "coxeter": c,
        "bricks": [{"facet": f, "b": b} for f, b in sorted(bricks.items())],
        "vertices": list(hull.vertices),
        "shifted_root_coords": shifted})
    return 0


def _cmd_tpaths(args) -> int:
    cartan = _parse_cartan(args)
    if not type_label(cartan).startswith("A"):
        raise ValueError("tpaths needs type A")
    n = cartan.n
    c = _parse_coxeter(args, n)
    try:
        i, j = (_natural(x, "--root") for x in args.root.split(","))
    except ValueError:
        raise ValueError(f"--root must be i,j with 1 <= i <= j <= {n}")
    if not 1 <= i <= j <= n:
        raise ValueError(f"--root must satisfy 1 <= i <= j <= {n}")
    tri = triangulation_of_coxeter(c)
    gamma = diagonal_of_root(tri, i, j)
    paths = enumerate_tpaths(tri, gamma)
    print(f"type A{n}, coxeter {','.join(map(str, c))}, "
          f"root α{i}..α{j}, diagonal {gamma.source}-{gamma.target}, "
          f"crossing {gamma.crossed}")
    print(f"{len(paths)} paths")
    rows = []
    for path in paths:
        mono = monomial_of_tpath(path, n)
        signs = "".join("+" if s > 0 else "-" for s in path.signs)
        steps = " ".join(f"{kind}:{label}" for kind, label in path.steps)
        print(f"signs {signs}  monomial y^{mono}  steps {steps}")
        rows.append({"signs": path.signs, "monomial": mono,
                     "steps": [list(step) for step in path.steps]})
    F = f_poly_via_tpaths(tri, i, j)
    print(f"F = {format_fpoly(F)}")
    _emit(args.emit_json, {
        "type": f"A{n}", "coxeter": c, "root": [i, j],
        "diagonal": [gamma.source, gamma.target],
        "crossing": gamma.crossed, "paths": rows,
        "F": format_fpoly(F)})
    return 0


def _cmd_verify(args) -> int:
    cartan = _parse_cartan(args)
    c = _parse_coxeter(args, cartan.n)
    if args.checks is None or args.checks.strip() == "all":
        names = None
    else:
        names = tuple(x.strip() for x in args.checks.split(",") if x.strip())
    reports = run_checks(cartan, c, names=names)
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {report.name:<10} {report.label} "
              f"c={','.join(map(str, report.coxeter))} "
              f"({report.elapsed:.2f}s)")
        if not report.passed:
            print(f"  counterexample: {report.counterexample}")
    _emit(args.emit_json, {
        "type": type_label(cartan), "coxeter": c,
        "reports": [{
            "name": r.name, "label": r.label, "coxeter": r.coxeter,
            "passed": r.passed, "counterexample": r.counterexample,
            "elapsed": r.elapsed} for r in reports]})
    return 0 if all(r.passed for r in reports) else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--type", help="family plus rank, such as B3")
    parser.add_argument("--rank", help="rank when --type is a bare family letter")
    parser.add_argument("--cartan", help="path to a JSON matrix file")
    parser.add_argument("--coxeter",
                        help="comma separated simple reflections; default 1..n")
    parser.add_argument("--emit-json", dest="emit_json",
                        help="also write the result as JSON to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterbrick",
        description="Exact cluster algebra, subword complex, and brick "
                    "polytope computations in finite type.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra in (
            ("facets", _cmd_facets, "list the facets of the subword complex"),
            ("seeds", _cmd_seeds, "enumerate all seeds with their variables"),
            ("fpoly", _cmd_fpoly,
             "print F-polynomial, g-, c-, d-vectors per positive root"),
            ("brick", _cmd_brick,
             "brick vectors, polytope vertices, shifted root-space copy"),
            ("tpaths", _cmd_tpaths, "enumerate type-A T-paths for one root"),
            ("verify", _cmd_verify, "run theorem and conjecture checks")):
        p = sub.add_parser(name, help=extra)
        _add_common(p)
        p.set_defaults(fn=fn)
        if name == "tpaths":
            p.add_argument("--root", required=True,
                           help="interval i,j naming the root αi+...+αj")
        if name == "verify":
            p.add_argument("--checks",
                           help="comma separated check names, or 'all'")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceLimit as err:
        print(f"error: resource limit: {err}", file=sys.stderr)
        return 3
    except (ClusterBrickError, ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
