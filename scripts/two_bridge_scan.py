#!/usr/bin/env python3
"""Scan random two-bridge links: the spread between the best upper and lower
volume bounds, and the white-face census of the augmented polyhedron.

For each t, ``--samples`` links with t twists are drawn, half of them given as
the mirror p/(p - q); each is reported as ``volbounds link two-bridge`` does,
by ``link_report(*two_bridge_inputs(p, q))``.  A row gives the range of the best
upper bound, the best lower bound and their ratio over those links, and the
census ``two_bridge_white_census(t)``, which depends only on t.  Exits 1, naming
the fraction, if a link's best lower bound exceeds its best upper bound.
"""

import argparse
import random
import sys

from volbounds.links import link_report, two_bridge_inputs
from volbounds.twists import two_bridge_white_census


def random_fraction(rng, t):
    """A fraction p/q whose Conway normal form has t >= 2 twists: digits
    1..6, the first and last at least 2, and half the time the mirror p/(p - q)."""
    digits = [rng.randint(1, 6) for _ in range(t)]
    digits[0] = max(digits[0], 2)
    digits[-1] = max(digits[-1], 2)
    p, q = 1, 0  # fold a_1 + 1/(a_2 + ...) from the last digit: p/q <- a + q/p
    for a in reversed(digits):
        p, q = a * p + q, p
    return (p, p - q) if rng.random() < 0.5 else (p, q)


def span(values):
    return f"{min(values):.6f}..{max(values):.6f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-t", type=int, default=10)
    parser.add_argument("--samples", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)

    print(f"{'t':>3} {'best upper':>23} {'best lower':>23} {'ratio':>11}  white census")
    for t in range(2, args.max_t + 1):
        uppers, lowers, ratios = [], [], []
        for _ in range(args.samples):
            p, q = random_fraction(rng, t)
            rows = link_report(*two_bridge_inputs(p, q))
            upper, lower = (
                next(r.value for r in rows if r.best and r.kind == kind) for kind in ("upper", "lower")
            )
            if lower > upper:
                sys.exit(f"b({p}/{q}): best lower bound {lower:.6f} exceeds best upper bound {upper:.6f}")
            uppers.append(upper)
            lowers.append(lower)
            ratios.append(upper / max(lower, 1e-9))
        ratio = f"{min(ratios):.2f}..{max(ratios):.2f}"
        census = two_bridge_white_census(t)
        pretty = ", ".join(f"f{n}={f}" for n, f in sorted(census.items()))
        print(f"{t:>3} {span(uppers):>23} {span(lowers):>23} {ratio:>11}  {pretty}")


if __name__ == "__main__":
    main()
