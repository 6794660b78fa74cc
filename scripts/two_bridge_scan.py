#!/usr/bin/env python3
"""Scan random two-bridge links: the spread between the best upper and lower
volume bounds, and the white-face census of the augmented polyhedron.

The census depends only on the number of twists t, so it is read off t and
printed once per t.  Exits 1, naming the fraction, if a link's best lower
bound exceeds its best upper bound.
"""

import argparse
import random
import sys

from volbounds.links import HypothesisFlags, link_report
from volbounds.twists import (
    TwistDecomposition,
    continued_fraction_value,
    two_bridge_lengths,
    two_bridge_white_census,
)


def random_fraction(rng, t):
    """A fraction p/q with t continued-fraction digits; torus links
    (q = +-1 mod p) are not hyperbolic and are drawn again."""
    while True:
        digits = [rng.randint(1, 6) for _ in range(t)]
        if digits[-1] < 2:
            digits[-1] = 2
        value = continued_fraction_value(digits)
        p, q = value.numerator, value.denominator
        if q % p not in (1, p - 1):
            return p, q


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-t", type=int, default=10)
    parser.add_argument("--samples", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)

    print(f"{'t':>3} {'best upper':>11} {'best lower':>11} {'ratio':>7}  white census")
    for t in range(2, args.max_t + 1):
        census = two_bridge_white_census(t)
        spreads = []
        for _ in range(args.samples):
            p, q = random_fraction(rng, t)
            flags = HypothesisFlags(
                reduced=True, alternating=True, two_bridge=True,
                not_figure_eight=p != 5, not_borromean=True,
            )
            rows = link_report(TwistDecomposition(two_bridge_lengths(p, q)), flags, white_census=census)
            upper = min(r.value for r in rows if r.applicable and r.kind == "upper")
            lower = max(r.value for r in rows if r.applicable and r.kind == "lower")
            if lower > upper:
                sys.exit(f"b({p}/{q}): best lower bound {lower:.6f} exceeds best upper bound {upper:.6f}")
            spreads.append((upper, lower))
        upper, lower = spreads[0]
        pretty = ", ".join(f"f{n}={f}" for n, f in sorted(census.items()))
        print(f"{t:>3} {upper:>11.6f} {lower:>11.6f} {upper / max(lower, 1e-9):>7.2f}  {pretty}")


if __name__ == "__main__":
    main()
