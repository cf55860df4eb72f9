"""Command line front end: construction, computation, verification, JSON.

Exit codes: 0 success, 1 a verification check failed, 2 malformed input,
3 a resource limit was reached.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .cluster import c_vector, d_vector, format_fpoly, format_laurent, g_vector
from .coxeter import check_coxeter_word
from .errors import ClusterBrickError, ResourceLimit
from .polytope import LatticePolytope
from .roots import CartanMatrix, bourbaki_family, cartan_of_type, \
    finite_family, positive_roots, w_catalan, weight_diff_to_root_coords
from .subword import (antigreedy_facet, brick_vector, build_complex,
                      enumerate_facets_with_tables)
from .typea import (diagonal_of_root, enumerate_tpaths, f_poly_via_tpaths,
                    monomial_of_tpath, triangulation_of_coxeter)
from .verify import build_correspondence, run_checks, type_label

_BIG = 1 << 63
# The most facets of a --type the walk takes on: B10 and C10 (184,756) and
# D10 (136,136) fit, A12 (742,900) does not.
MAX_FACETS = 250_000


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


def _parse_type(args) -> tuple[str, int]:
    """(family, rank) that --type names, such as ("B", 3); builds nothing."""
    label = args.type.strip().upper()
    rank = _natural(label[1:], "--type")
    return finite_family(label[:1], rank), rank


def _parse_cartan(args) -> CartanMatrix:
    """The Cartan matrix that --type or --cartan names.  A type with more
    than MAX_FACETS facets is refused: a --type before its matrix is built,
    a --cartan file when `bourbaki_family` recognises it."""
    if args.cartan is not None:
        if args.type is not None:
            raise ValueError("give either --type or --cartan, not both")
        with open(args.cartan, encoding="utf-8") as handle:
            try:
                cartan = CartanMatrix(json.load(handle))
            except RecursionError:
                raise ValueError(
                    f"--cartan file {args.cartan} is nested too deeply") from None
        if family := bourbaki_family(cartan):
            _refuse_too_many_facets(family, cartan.n)
        return cartan
    if args.type is None:
        raise ValueError("one of --type or --cartan is required")
    family, rank = _parse_type(args)
    _refuse_too_many_facets(family, rank)
    return cartan_of_type(family, rank)


def _refuse_too_many_facets(family: str, rank: int) -> None:
    """Raise ResourceLimit when the finite type has more than MAX_FACETS
    facets, before any degree product is built: every type of rank 12 or
    more is over the cap, so its count is never formed."""
    if rank >= 12:      # A12 has the fewest facets of all types of rank >= 12
        raise ResourceLimit(
            f"type {family}{rank} has at least {w_catalan('A', 12):,} facets, "
            f"over the cap of {MAX_FACETS:,}")
    facets = w_catalan(family, rank)
    if facets > MAX_FACETS:
        raise ResourceLimit(
            f"type {family}{rank} has {facets:,} facets, over the cap of {MAX_FACETS:,}")


def _parse_coxeter(args, n: int):
    if args.coxeter is None:
        return tuple(range(1, n + 1))
    try:
        word = tuple(_natural(x, "--coxeter") for x in args.coxeter.split(","))
    except ValueError:
        raise ValueError(f"--coxeter must be comma-separated integers, got {args.coxeter!r}")
    check_coxeter_word(word, n)
    return word


def _parse_root(text: str, n: int) -> tuple[int, int]:
    """(i, j) of --root "i,j", naming the root αi+...+αj of type A<n>."""
    try:
        i, j = (_natural(x, "--root") for x in text.split(","))
    except ValueError:
        raise ValueError(f"--root must be i,j with 1 <= i <= j <= {n}")
    if not 1 <= i <= j <= n:
        raise ValueError(f"--root must satisfy 1 <= i <= j <= {n}")
    return i, j


def _run(args) -> int:
    """The frame of every subcommand.  Parse and validate all input, run
    the command's body, write --emit-json with the type and word added to
    its payload, and only then print its lines under the header (verify
    prints none), so a failed write prints nothing.  1 if a report failed."""
    if args.command == "tpaths":
        family, n = _parse_type(args)
        if family != "A":
            raise ValueError("tpaths needs type A")
        cartan, label = n, f"A{n}"      # the T-path model reads only the rank
    else:
        cartan = _parse_cartan(args)
        n, label = cartan.n, type_label(cartan)
    c = _parse_coxeter(args, n)
    inputs = {}
    if "root" in args:
        inputs["root"] = _parse_root(args.root, n)
    if "checks" in args and args.checks is not None and args.checks.strip() != "all":
        inputs["names"] = tuple(x.strip() for x in args.checks.split(",") if x.strip())
    lines, payload = args.body(cartan, c, **inputs)
    if args.emit_json is not None:
        with open(args.emit_json, "w", encoding="utf-8") as handle:
            json.dump(_jsonable({"type": label, "coxeter": c, **payload}),
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.command != "verify":
        print(f"type {label}, coxeter {','.join(map(str, c))}")
    for line in lines:
        print(line)
    return 1 if any(not r["passed"] for r in payload.get("reports", ())) else 0


def _cmd_facets(cartan, c):
    complex_ = build_complex(cartan, c)
    facets = sorted(enumerate_facets_with_tables(complex_))
    lines = [f"word {' '.join(map(str, complex_.word))}", f"{len(facets)} facets"]
    lines += [" ".join(f"{i:3d}" for i in facet) for facet in facets]
    return lines, {"word": complex_.word, "facets": facets}


def _cmd_seeds(cartan, c):
    corr = build_correspondence(cartan, c)
    n = corr.complex_.n
    lines, rows = [f"{len(corr.nodes)} seeds"], []
    for facet in sorted(corr.nodes):
        seed = corr.nodes[facet].seed
        variables = [format_laurent(v, n) for v in seed.variables]
        lines.append(f"facet {facet}")
        lines += [f"  slot {s}: {text}" for s, text in enumerate(variables, start=1)]
        rows.append({"facet": facet, "matrix": seed.matrix, "variables": variables})
    return lines, {"seeds": rows}


def _cmd_fpoly(cartan, c):
    """One record per positive root: F, g, a representative c-vector from
    the first enumerated seed holding the variable, and d."""
    corr = build_correspondence(cartan, c)
    complex_ = corr.complex_
    n = complex_.n
    first_c = {}
    for facet, node in corr.nodes.items():
        for i in facet:
            beta = complex_.pos_root[i - 1]
            if i > n and beta not in first_c:
                first_c[beta] = c_vector(node.seed, node.slot_of(i))
    lines, rows = [], []
    for beta in positive_roots(cartan):
        var = corr.variables[beta]
        row = {"root": beta, "root_name": root_string(beta),
               "F": format_fpoly(corr.f_polynomials[beta]),
               "g": g_vector(var, n), "c": first_c[beta], "d": d_vector(var, n)}
        rows.append(row)
        lines += [f"root {beta} = {row['root_name']}", f"  F = {row['F']}",
                  f"  g = {row['g']}   c = {row['c']} ({root_string(row['c'])})"
                  f"   d = {row['d']}"]
    return lines, {"variables": rows}


def _cmd_brick(cartan, c):
    complex_ = build_complex(cartan, c)
    tables = enumerate_facets_with_tables(complex_)
    bricks = {facet: brick_vector(complex_, facet, table)
              for facet, table in tables.items()}
    hull = LatticePolytope(bricks.values())
    ag = bricks[antigreedy_facet(complex_)]
    shifted = [weight_diff_to_root_coords(cartan, v, ag)
               for v in hull.vertices]
    lines = [f"{len(bricks)} brick vectors, {len(hull.vertices)} vertices"]
    lines += [f"facet {f}: b = {b}{' *' if b in hull.vertices else ''}"
              for f, b in sorted(bricks.items())]
    lines += [f"antigreedy b = {ag}",
              "vertices shifted by -b(antigreedy), root coordinates:"]
    lines += [f"  {v} = {root_string(v)}" for v in shifted]
    return lines, {
        "bricks": [{"facet": f, "b": b} for f, b in sorted(bricks.items())],
        "vertices": list(hull.vertices), "shifted_root_coords": shifted}


def _cmd_tpaths(n, c, root):
    i, j = root
    tri = triangulation_of_coxeter(c)
    gamma = diagonal_of_root(tri, i, j)
    paths = enumerate_tpaths(tri, gamma)
    lines = [f"root α{i}..α{j}, diagonal {gamma.source}-{gamma.target}, "
             f"crossing {gamma.crossed}", f"{len(paths)} paths"]
    rows = []
    for path in paths:
        mono = monomial_of_tpath(path, n)
        signs = "".join("+" if s > 0 else "-" for s in path.signs)
        steps = " ".join(f"{kind}:{label}" for kind, label in path.steps)
        lines.append(f"signs {signs}  monomial y^{mono}  steps {steps}")
        rows.append({"signs": path.signs, "monomial": mono,
                     "steps": [list(step) for step in path.steps]})
    F = format_fpoly(f_poly_via_tpaths(tri, i, j))
    lines.append(f"F = {F}")
    return lines, {"root": [i, j], "diagonal": [gamma.source, gamma.target],
                   "crossing": gamma.crossed, "paths": rows, "F": F}


def _cmd_verify(cartan, c, names=None):
    reports = run_checks(cartan, c, names=names)
    lines = []
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        lines.append(f"{status} {report.name:<10} {report.label} "
                     f"c={','.join(map(str, report.coxeter))} "
                     f"({report.elapsed:.2f}s)")
        if not report.passed:
            lines.append(f"  counterexample: {report.counterexample}")
    return lines, {"reports": [dataclasses.asdict(r) for r in reports]}


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
        p.set_defaults(body=fn)
        # the T-path model reads only the rank: tpaths needs --type A<n>
        p.add_argument("--type", required=name == "tpaths",
                       help="family plus rank, such as B3")
        if name == "tpaths":
            p.add_argument("--root", required=True,
                           help="interval i,j naming the root αi+...+αj")
        else:
            p.add_argument("--cartan", help="path to a JSON matrix file")
        p.add_argument("--coxeter",
                       help="comma separated simple reflections; default 1..n")
        p.add_argument("--emit-json", dest="emit_json",
                       help="also write the result as JSON to this path")
        if name == "verify":
            p.add_argument("--checks",
                           help="comma separated check names, or 'all'")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ResourceLimit as err:
        print(f"error: resource limit: {err}", file=sys.stderr)
        return 3
    except (ClusterBrickError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
