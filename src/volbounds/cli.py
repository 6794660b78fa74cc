"""Command-line front end.

Subcommands mirror the library: ``lob``, ``constants``, ``poly family``,
``poly graph``, ``poly medial``, ``poly dual``, ``link two-bridge``,
``link twists``, ``link augment``.  Reports render as a fixed-width table or
a JSON document (``--format json``); numeric output is fixed at six decimals
(round-half-even).  Exit codes: 0 success, 1 when stdout is closed before
the output is written (e.g. piped into ``head``), 2 invalid input, 3 when a
bound requested with ``--bound`` is not applicable under the given
hypotheses.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module

# Each command imports the library modules it runs, so that a call loads
# only those.

# family name -> whether its builder, the `maps` function of that name
# (with "_" for "-"), takes n
_FAMILIES = {
    "tetrahedron": False,
    "cube": False,
    "octahedron": False,
    "pyramid": True,
    "bipyramid": True,
    "prism": True,
    "antiprism": True,
    "two-apex-pyramid": True,
    "twisted-antiprism": True,
}

# upper-bound row added to a family member's report:
# (name, hypotheses, citation, "module.function" giving the exact form of member n)
_FAMILY_BOUNDS = {
    "prism": (
        "prism-atkinson",
        ("prism",),
        "Atkinson 2011 prism bound",
        "polyhedra.prism_atkinson_expr",
    ),
    "pyramid": (
        "antiprism-volume",
        ("exact rectification volume",),
        "Thurston antiprism volume (exact sup)",
        "lobachevsky.antiprism_expr",
    ),
    "two-apex-pyramid": (
        "twisted-antiprism-volume",
        ("exact rectification volume",),
        "twisted antiprism volume (exact sup)",
        "lobachevsky.twisted_antiprism_expr",
    ),
}

# the fields of links.HypothesisFlags, one `link twists` switch each; spelled
# out so that building the parser imports no library module
_FLAG_FIELDS = ("reduced", "alternating", "two_bridge", "not_figure_eight", "not_borromean")


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _census_block(census) -> dict:
    return {
        "V": census.V,
        "E": census.E,
        "F": census.F,
        "degree_counts": {str(k): v for k, v in sorted(census.degree_counts.items())},
        "face_counts": {str(k): v for k, v in sorted(census.face_counts.items())},
    }


def _bound_rows(bounds) -> list[dict]:
    return [
        {
            "name": b.name,
            "kind": b.kind,
            "value": _fmt(b.value) if b.value is not None else None,
            "applicable": b.applicable,
            "best": b.best,
            "hypotheses": list(b.hypotheses),
            "citation": b.citation,
        }
        for b in bounds
    ]


def _render(doc: dict, fmt: str, out=None) -> None:
    out = out if out is not None else sys.stdout
    if fmt == "json":
        import json
        json.dump(doc, out, indent=2)
        out.write("\n")
        return
    for key, value in doc.items():
        if key == "bounds":
            out.write("bounds:\n")
            header = f"  {'name':<26} {'kind':<6} {'value':>12} {'appl':<5} {'best':<5} citation\n"
            out.write(header)
            for row in value:
                val = row["value"] if row["value"] is not None else "--"
                out.write(
                    f"  {row['name']:<26} {row['kind']:<6} {val:>12} "
                    f"{'yes' if row['applicable'] else 'no':<5} "
                    f"{'*' if row['best'] else '':<5} {row['citation']}\n"
                )
        elif key == "warnings":
            for w in value:
                out.write(f"warning: {w}\n")
        elif isinstance(value, dict):
            flat = " ".join(f"{k}={v}" for k, v in value.items())
            out.write(f"{key}: {flat}\n")
        else:
            out.write(f"{key}: {value}\n")


def _report(doc: dict, args) -> int:
    """Render a bound report, or with ``--bound`` print just that row's value."""
    name = args.bound
    if not name:
        _render(doc, args.format)
        return 0
    rows = [r for r in doc["bounds"] if r["name"] == name]
    if not rows:
        print(f"error: unknown bound name {name!r}", file=sys.stderr)
        return 2
    row = rows[0]
    if not row["applicable"]:
        print(f"bound {name} not applicable under the given hypotheses", file=sys.stderr)
        return 3
    print(row["value"])
    return 0


def _cmd_lob(args) -> int:
    from .lobachevsky import lobachevsky
    print(_fmt(lobachevsky(args.theta)))
    return 0


def _cmd_constants(args) -> int:
    from .lobachevsky import V_OCT, V_TET
    doc = {"v_tet": _fmt(V_TET), "v_oct": _fmt(V_OCT)}
    _render(doc, args.format)
    return 0


def _poly_doc(m, description: str, family=None, n=None) -> dict:
    from . import polyhedra
    from .lobachevsky import bound_row, mark_best
    doc: dict = {"input": description, "census": _census_block(m.census)}
    bounds = polyhedra.rectification_bounds(m)
    if family in _FAMILY_BOUNDS:
        name, hypotheses, citation, form = _FAMILY_BOUNDS[family]
        module, function = form.split(".")
        expr = getattr(import_module(f"volbounds.{module}"), function)
        extra = bound_row(name, "upper", hypotheses, citation, lambda: expr(n))
        bounds = mark_best(bounds + [extra])
    doc["bounds"] = _bound_rows(bounds)
    doc["warnings"] = []
    return doc


def _cmd_poly_family(args) -> int:
    from . import maps
    if args.name not in _FAMILIES:
        print(f"error: unknown family {args.name!r}; choices: {sorted(_FAMILIES)}", file=sys.stderr)
        return 2
    needs_n = _FAMILIES[args.name]
    if needs_n and args.n is None:
        print(f"error: family {args.name} needs --n", file=sys.stderr)
        return 2
    if not needs_n and args.n is not None:
        print(f"error: family {args.name} takes no --n", file=sys.stderr)
        return 2
    builder = getattr(maps, args.name.replace("-", "_"))
    m = builder(args.n) if needs_n else builder()
    desc = args.name if not needs_n else f"{args.name}({args.n})"
    if args.out:
        maps.save_map(m, args.out)
    if not (args.bounds or args.bound):
        _render({"input": desc, "census": _census_block(m.census)}, args.format)
        return 0
    doc = _poly_doc(m, desc, family=args.name, n=args.n)
    return _report(doc, args)


def _cmd_poly_graph(args) -> int:
    from . import maps
    m = maps.load_map(args.file)
    doc = _poly_doc(m, f"map file {args.file}")
    return _report(doc, args)


def _cmd_poly_medial(args) -> int:
    from . import maps
    m = maps.load_map(args.file)
    med = maps.medial(m)
    if args.out:
        maps.save_map(med, args.out)
    _render({"input": f"medial of {args.file}", "census": _census_block(med.census)}, args.format)
    return 0


def _cmd_poly_dual(args) -> int:
    from . import maps
    m = maps.load_map(args.file)
    d = maps.dual(m)
    if args.out:
        maps.save_map(d, args.out)
    _render({"input": f"dual of {args.file}", "census": _census_block(d.census)}, args.format)
    return 0


def _parse_fraction(text: str) -> tuple[int, int]:
    try:
        p_str, q_str = text.split("/")
        return int(p_str), int(q_str)
    except ValueError as exc:
        raise ValueError(f"--fraction expects p/q, got {text!r}") from exc


def _parse_jones(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--jones expects two comma-separated integers, got {text!r}")
    return abs(int(parts[0])), abs(int(parts[1]))


def _link_doc(decomposition, flags, white_census=None, jones=None, description="", warnings=()) -> dict:
    from . import links
    from .twists import twist_stats
    s = twist_stats(decomposition)
    doc: dict = {
        "input": description,
        "twists": {
            "lengths": list(decomposition.lengths),
            "t": s.t,
            "c": s.c,
        },
        "flags": flags._asdict(),
    }
    if white_census is not None:
        doc["white_census"] = {str(k): v for k, v in sorted(white_census.items())}
    rows = links.link_report(decomposition, flags, white_census=white_census, jones_coefficients=jones)
    doc["bounds"] = _bound_rows(rows)
    doc["warnings"] = sorted(warnings)
    return doc


def _cmd_link_two_bridge(args) -> int:
    from . import augmented, links
    from .twists import two_bridge_diagram
    p, q = _parse_fraction(args.fraction)
    diagram = two_bridge_diagram(p, q)
    poly = augmented.augment(diagram)
    warnings = []
    if q % p in (1 % p, (p - 1) % p):
        warnings.append(f"b({p}/{q}) is a torus link; the hyperbolicity hypotheses fail")
    # Conway normal forms are reduced alternating two-bridge diagrams; the
    # figure-eight knot is exactly b(5/2) (and its mirror b(5/3))
    flags = links.HypothesisFlags(
        reduced=True,
        alternating=True,
        two_bridge=True,
        not_figure_eight=p != 5,
        not_borromean=True,
    )
    doc = _link_doc(
        diagram.decomposition(),
        flags,
        white_census=poly.white_census,
        jones=_parse_jones(args.jones),
        description=f"two-bridge b({p}/{q}), continued fraction {list(diagram.lengths)}",
        warnings=warnings,
    )
    return _report(doc, args)


def _cmd_link_twists(args) -> int:
    from . import links
    from .twists import TwistDecomposition
    lengths = tuple(int(x) for x in args.lengths.split(","))
    decomposition = TwistDecomposition(lengths)
    doc = _link_doc(
        decomposition,
        links.HypothesisFlags(**{name: getattr(args, name) for name in _FLAG_FIELDS}),
        jones=_parse_jones(args.jones),
        description=f"twist decomposition {list(lengths)}",
    )
    return _report(doc, args)


def _cmd_link_augment(args) -> int:
    from . import augmented, links
    from .twists import load_diagram, save_diagram, two_bridge_diagram
    if args.fraction:
        p, q = _parse_fraction(args.fraction)
        diagram = two_bridge_diagram(p, q)
        desc = f"augmentation of b({p}/{q})"
    else:
        diagram = load_diagram(args.file)
        desc = f"augmentation of {args.file}"
    poly = augmented.augment(diagram)
    if args.out:
        augmented.save_augmented(poly, args.out)
    if args.out_diagram:
        save_diagram(diagram, args.out_diagram)
    doc = {
        "input": desc,
        "census": _census_block(poly.map.census),
        "red_vertices": sorted(poly.red_vertices),
        "dark_faces": sorted(poly.dark_faces),
        "white_census": {str(k): v for k, v in sorted(poly.white_census.items())},
        "white_face_bound": _fmt(links.white_face_expr(poly.t, poly.white_census).value),
    }
    _render(doc, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volbounds",
        description="Volume bounds for generalized hyperbolic polyhedra and links",
    )
    parser.add_argument("--format", choices=("table", "json"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lob = sub.add_parser("lob", help="evaluate the Lobachevsky function")
    p_lob.add_argument("--theta", type=float, required=True)
    p_lob.set_defaults(func=_cmd_lob)

    p_const = sub.add_parser("constants", help="print v_tet and v_oct")
    p_const.set_defaults(func=_cmd_constants)

    p_poly = sub.add_parser("poly", help="polyhedron operations")
    poly_sub = p_poly.add_subparsers(dest="poly_command", required=True)

    p_family = poly_sub.add_parser("family", help="build a named family member")
    p_family.add_argument("--name", required=True)
    p_family.add_argument("--n", type=int)
    p_family.add_argument("--bounds", action="store_true")
    p_family.add_argument("--bound", help="print just this bound (exit 3 if not applicable)")
    p_family.add_argument("--out", help="write the map file")
    p_family.set_defaults(func=_cmd_poly_family)

    p_graph = poly_sub.add_parser("graph", help="bounds for a map file")
    p_graph.add_argument("--file", required=True)
    p_graph.add_argument("--bound")
    p_graph.set_defaults(func=_cmd_poly_graph)

    p_medial = poly_sub.add_parser("medial", help="medial map of a map file")
    p_medial.add_argument("--file", required=True)
    p_medial.add_argument("--out")
    p_medial.set_defaults(func=_cmd_poly_medial)

    p_dual = poly_sub.add_parser("dual", help="dual map of a map file")
    p_dual.add_argument("--file", required=True)
    p_dual.add_argument("--out")
    p_dual.set_defaults(func=_cmd_poly_dual)

    p_link = sub.add_parser("link", help="link-volume bounds")
    link_sub = p_link.add_subparsers(dest="link_command", required=True)

    p_tb = link_sub.add_parser("two-bridge", help="bounds for a two-bridge link b(p/q)")
    p_tb.add_argument("--fraction", required=True, help="p/q with gcd(p,q)=1, 0<q<p")
    p_tb.add_argument("--jones", help="|a_{n+1}|,|a_{m-1}| Jones coefficient magnitudes")
    p_tb.add_argument("--bound")
    p_tb.set_defaults(func=_cmd_link_two_bridge)

    p_tw = link_sub.add_parser("twists", help="bounds from a twist decomposition")
    p_tw.add_argument("--lengths", required=True, help="comma-separated signed twist lengths")
    p_tw.add_argument("--jones")
    p_tw.add_argument("--bound")
    for name in _FLAG_FIELDS:
        p_tw.add_argument(f"--{name.replace('_', '-')}", dest=name, action="store_true")
    p_tw.set_defaults(func=_cmd_link_twists)

    p_aug = link_sub.add_parser("augment", help="augmented polyhedron of a diagram")
    group = p_aug.add_mutually_exclusive_group(required=True)
    group.add_argument("--fraction")
    group.add_argument("--file", help="twist-reduced diagram file")
    p_aug.add_argument("--out", help="write the augmented polyhedron file")
    p_aug.add_argument("--out-diagram", help="write the twist-reduced diagram file")
    p_aug.set_defaults(func=_cmd_link_augment)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        return _stdout_closed()
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _stdout_closed() -> int:
    """Exit code for a reader that closed stdout early.

    stdout is pointed at the null device so that flushing it again at exit
    stays silent (the recipe of the Python ``signal`` docs).
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    return 1


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = _stdout_closed()
    sys.exit(code)


if __name__ == "__main__":
    main()
