#!/usr/bin/env python3
"""Tabulate upper bounds against exact rectification volumes for the three
polyhedron families (pyramids, prisms, two-apex pyramids).

Shows which bound wins as n grows; for prisms the all-trivalent refinement
overtakes the Atkinson prism bound at n = 8.
"""

import argparse

from volbounds.lobachevsky import antiprism_expr, twisted_antiprism_expr
from volbounds.maps import prism, pyramid, two_apex_pyramid
from volbounds.polyhedra import prism_atkinson_expr, rectification_bounds


def best_rows(skeleton):
    """The best lower bound, and the best upper bound with the name of the
    first row marked best."""
    rows = rectification_bounds(skeleton)
    lower, upper = (next(r for r in rows if r.best and r.kind == kind) for kind in ("lower", "upper"))
    return lower.value, upper.value, upper.name


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=14)
    args = parser.parse_args()

    print("pyramids: exact sup = antiprism volume")
    print(f"{'n':>3} {'lower':>10} {'exact':>10} {'best upper':>11}  best bound")
    for n in range(3, args.max_n + 1):
        lower, upper, name = best_rows(pyramid(n))
        exact = antiprism_expr(n).value
        print(f"{n:>3} {lower:>10.6f} {exact:>10.6f} {upper:>11.6f}  {name}")

    print()
    print("prisms: Atkinson prism bound vs the all-trivalent refinement")
    print(f"{'n':>3} {'prism bound':>12} {'refinement':>11}  winner")
    for n in range(3, args.max_n + 1):
        atkinson = prism_atkinson_expr(n).value
        rows = rectification_bounds(prism(n))
        refined = next(r.value for r in rows if r.name == "triangle-trivalent")
        winner = "refinement" if refined < atkinson else "prism bound"
        print(f"{n:>3} {atkinson:>12.6f} {refined:>11.6f}  {winner}")

    print()
    print("two-apex pyramids: exact sup = twisted antiprism volume")
    print(f"{'n':>3} {'lower':>10} {'exact':>10} {'best upper':>11}  best bound")
    for n in range(4, args.max_n + 1):
        lower, upper, name = best_rows(two_apex_pyramid(n))
        exact = twisted_antiprism_expr(n).value
        print(f"{n:>3} {lower:>10.6f} {exact:>10.6f} {upper:>11.6f}  {name}")


if __name__ == "__main__":
    main()
