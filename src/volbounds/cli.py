"""Command-line front end.

Subcommands mirror the library: ``lob``, ``constants``, ``poly family``,
``poly graph``, ``poly medial``, ``poly dual``, ``link two-bridge``,
``link twists``, ``link augment``.  Reports render as a fixed-width table or
a JSON document (``--format json``); numeric output is fixed at six decimals
(round-half-even).  Exit codes: 0 success, 1 when stdout is closed before
the output is written (e.g. piped into ``head``), 2 invalid input (also input
too large to build in memory), 3 when a bound requested with ``--bound`` is
not applicable under the given hypotheses.
"""

from __future__ import annotations

import argparse
import os
import sys

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


def _fmt(x: float) -> str:
    return f"{x:.6f}"


# the CLI reads and writes every file; the library has the dict formats only
def _read_json(path):
    import json
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _write_json(obj, path) -> None:
    import json
    with open(path, "w") as fh:
        fh.write(json.dumps(obj) + "\n")


def _parse_ints(text: str, sep: str, expects: str, count: int | None = None) -> tuple[int, ...]:
    """The integers of ``text`` split at ``sep``; ``ValueError("<expects>,
    got <text>")`` if an entry is not an integer or there are not ``count``."""
    try:
        values = tuple(int(x) for x in text.split(sep))
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        raise ValueError(f"{expects}, got {text!r}")
    return values


def _census_block(census) -> dict:
    return {
        "V": census.V,
        "E": census.E,
        "F": census.F,
        "degree_counts": {str(k): v for k, v in sorted(census.degree_counts.items())},
        "face_counts": {str(k): v for k, v in sorted(census.face_counts.items())},
    }


def _row_dicts(bounds) -> list[dict]:
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
        raise ValueError(f"unknown bound name {name!r}")
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


def _poly_doc(m, description: str, non_obtuse: bool, family=None, n=None) -> dict:
    from . import polyhedra
    from .lobachevsky import antiprism_expr, mark_best, report, twisted_antiprism_expr
    # row added to a family member's report, its exact form a function of n
    family_rows = {
        "prism": (
            "prism-atkinson", "upper", ("prism",), "Atkinson 2011 prism bound",
            polyhedra.prism_atkinson_expr,
        ),
        "pyramid": (
            "antiprism-volume", "upper", ("exact rectification volume",),
            "Thurston antiprism volume (exact sup)", antiprism_expr,
        ),
        "two-apex-pyramid": (
            "twisted-antiprism-volume", "upper", ("exact rectification volume",),
            "twisted antiprism volume (exact sup)", twisted_antiprism_expr,
        ),
    }
    doc: dict = {"input": description, "census": _census_block(m.census)}
    bounds = polyhedra.rectification_bounds(m, non_obtuse)
    if family in family_rows:
        bounds = mark_best(bounds + report((family_rows[family],), set(), n))
    doc["bounds"] = _row_dicts(bounds)
    doc["warnings"] = []
    return doc


def _cmd_poly_family(args) -> int:
    from . import maps
    if args.name not in _FAMILIES:
        raise ValueError(f"unknown family {args.name!r}; choices: {sorted(_FAMILIES)}")
    needs_n = _FAMILIES[args.name]
    if needs_n and args.n is None:
        raise ValueError(f"family {args.name} needs --n")
    if not needs_n and args.n is not None:
        raise ValueError(f"family {args.name} takes no --n")
    builder = getattr(maps, args.name.replace("-", "_"))
    m = builder(args.n) if needs_n else builder()
    desc = args.name if not needs_n else f"{args.name}({args.n})"
    if args.out:
        _write_json(maps.map_to_dict(m), args.out)
    if not (args.bounds or args.bound):
        _render({"input": desc, "census": _census_block(m.census)}, args.format)
        return 0
    doc = _poly_doc(m, desc, args.non_obtuse, family=args.name, n=args.n)
    return _report(doc, args)


def _cmd_poly_graph(args) -> int:
    from . import maps
    m = maps.map_from_dict(_read_json(args.file))
    doc = _poly_doc(m, f"map file {args.file}", args.non_obtuse)
    return _report(doc, args)


def _cmd_poly_medial_or_dual(args) -> int:
    from . import maps
    m = getattr(maps, args.poly_command)(maps.map_from_dict(_read_json(args.file)))
    if args.out:
        _write_json(maps.map_to_dict(m), args.out)
    doc = {"input": f"{args.poly_command} of {args.file}", "census": _census_block(m.census)}
    _render(doc, args.format)
    return 0


def _parse_jones(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    coefficients = _parse_ints(text, ",", "--jones expects two comma-separated integers", 2)
    return tuple(abs(a) for a in coefficients)


def _mirror(p: int, q: int) -> str:
    """How an input line names the mirror b(p/(p - q)) that b(p/q) is read as."""
    return f", mirror of b({p}/{p - q})" if 2 * q > p else ""


def _link_doc(decomposition, flags, white_census=None, jones=None, description="") -> dict:
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
    doc["bounds"] = _row_dicts(rows)
    doc["warnings"] = []
    return doc


def _cmd_link_two_bridge(args) -> int:
    from . import links
    p, q = _parse_ints(args.fraction, "/", "--fraction expects p/q", 2)
    decomposition, flags, census = links.two_bridge_inputs(p, q)
    lengths = list(decomposition.lengths)
    desc = f"two-bridge b({p}/{q}){_mirror(p, q)}, continued fraction {lengths}"
    doc = _link_doc(decomposition, flags, census, _parse_jones(args.jones), desc)
    return _report(doc, args)


def _cmd_link_twists(args) -> int:
    from . import links
    from .twists import TwistDecomposition
    lengths = _parse_ints(args.lengths, ",", "--lengths expects comma-separated integers")
    decomposition = TwistDecomposition(lengths)
    flags = links.HypothesisFlags._make(getattr(args, name) for name in links.HypothesisFlags._fields)
    doc = _link_doc(
        decomposition,
        flags,
        jones=_parse_jones(args.jones),
        description=f"twist decomposition {list(lengths)}",
    )
    return _report(doc, args)


def _cmd_link_augment(args) -> int:
    from . import augmented, links
    from .maps import map_to_dict
    from .twists import diagram_from_dict, diagram_to_dict, two_bridge_diagram
    if args.fraction:
        p, q = _parse_ints(args.fraction, "/", "--fraction expects p/q", 2)
        diagram = two_bridge_diagram(p, q)
        desc = f"augmentation of b({p}/{q}){_mirror(p, q)}"
    else:
        diagram = diagram_from_dict(_read_json(args.file))
        desc = f"augmentation of {args.file}"
    poly = augmented.augment(diagram)
    doc = {
        "input": desc,
        "census": _census_block(poly.map.census),
        "red_vertices": sorted(poly.red_vertices),
        "dark_faces": sorted(poly.dark_faces),
        "white_census": {str(k): v for k, v in sorted(poly.white_census.items())},
        "white_face_bound": _fmt(links.white_face_expr(poly.t, poly.white_census).value),
    }
    if args.out:
        # P's file is its map object plus three of the printed fields
        p_file = map_to_dict(poly.map)
        p_file.update(
            red=doc["red_vertices"], dark_faces=doc["dark_faces"], white_census=doc["white_census"]
        )
        _write_json(p_file, args.out)
    if args.out_diagram:
        _write_json(diagram_to_dict(diagram), args.out_diagram)
    _render(doc, args.format)
    return 0


class _LazyParser(argparse.ArgumentParser):
    """Subcommand parser that adds its arguments on its first parse.

    ``build(parser)`` adds the arguments, defaults and sub-subparsers, so a
    call builds only the parsers on its own command path; the subcommand
    choices and their help lines live in the parent and are there already.
    """

    def __init__(self, *args, build=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._build = build

    def parse_known_args(self, args=None, namespace=None):
        build, self._build = self._build, None
        if build is not None:
            build(self)
        return super().parse_known_args(args, namespace)


def _build_lob(p) -> None:
    p.add_argument("--theta", type=float, required=True)
    p.set_defaults(func=_cmd_lob)


def _build_constants(p) -> None:
    p.set_defaults(func=_cmd_constants)


def _build_poly(p) -> None:
    sub = p.add_subparsers(dest="poly_command", required=True)
    sub.add_parser("family", help="build a named family member", build=_build_poly_family)
    sub.add_parser("graph", help="bounds for a map file", build=_build_poly_graph)
    sub.add_parser("medial", help="medial map of a map file", build=_build_poly_medial_or_dual)
    sub.add_parser("dual", help="dual map of a map file", build=_build_poly_medial_or_dual)


def _build_poly_family(p) -> None:
    p.add_argument("--name", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--bounds", action="store_true")
    p.add_argument("--bound", help="print just this bound (exit 3 if not applicable)")
    p.add_argument("--out", help="write the map file")
    _add_non_obtuse(p)
    p.set_defaults(func=_cmd_poly_family)


def _build_poly_graph(p) -> None:
    p.add_argument("--file", required=True)
    p.add_argument("--bound")
    _add_non_obtuse(p)
    p.set_defaults(func=_cmd_poly_graph)


def _add_non_obtuse(p) -> None:
    p.add_argument("--non-obtuse", action="store_true",
                   help="assert the polyhedra are non-obtuse (gates atkinson-mixed)")


def _build_poly_medial_or_dual(p) -> None:
    p.add_argument("--file", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_poly_medial_or_dual)


def _build_link(p) -> None:
    sub = p.add_subparsers(dest="link_command", required=True)
    sub.add_parser(
        "two-bridge", help="bounds for a two-bridge link b(p/q)", build=_build_link_two_bridge
    )
    sub.add_parser("twists", help="bounds from a twist decomposition", build=_build_link_twists)
    sub.add_parser("augment", help="augmented polyhedron of a diagram", build=_build_link_augment)


_JONES_HELP = (
    "|a_{n+1}|,|a_{m-1}| Jones coefficient magnitudes; write --jones=-1,2 "
    "when the first is negative"
)


def _build_link_two_bridge(p) -> None:
    p.add_argument("--fraction", required=True, help="p/q with gcd(p,q)=1, 0<q<p")
    p.add_argument("--jones", help=_JONES_HELP)
    p.add_argument("--bound")
    p.set_defaults(func=_cmd_link_two_bridge)


def _build_link_twists(p) -> None:
    from .links import HypothesisFlags
    p.add_argument(
        "--lengths",
        required=True,
        help="comma-separated signed twist lengths; write --lengths=-3,4,-4 when the first is negative",
    )
    p.add_argument("--jones", help=_JONES_HELP)
    p.add_argument("--bound")
    for name in HypothesisFlags._fields:
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, action="store_true")
    p.set_defaults(func=_cmd_link_twists)


def _build_link_augment(p) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fraction")
    group.add_argument("--file", help="twist-reduced diagram file")
    p.add_argument("--out", help="write the augmented polyhedron file")
    p.add_argument("--out-diagram", help="write the twist-reduced diagram file")
    p.set_defaults(func=_cmd_link_augment)


def build_parser() -> argparse.ArgumentParser:
    """The ``volbounds`` parser; each subcommand parser fills in on its first parse."""
    parser = argparse.ArgumentParser(
        prog="volbounds",
        description="Volume bounds for generalized hyperbolic polyhedra and links",
    )
    parser.add_argument("--format", choices=("table", "json"), default="table")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_LazyParser)
    sub.add_parser("lob", help="evaluate the Lobachevsky function", build=_build_lob)
    sub.add_parser("constants", help="print v_tet and v_oct", build=_build_constants)
    sub.add_parser("poly", help="polyhedron operations", build=_build_poly)
    sub.add_parser("link", help="link-volume bounds", build=_build_link)
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
    except MemoryError:
        # e.g. a family member with n in the billions; the partial build is
        # freed by the time the handler runs
        print("error: out of memory: the input is too large", file=sys.stderr)
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
