"""Link-diagram combinatorics: twist decompositions and two-bridge diagrams.

A twist is a maximal chain of bigons in a link diagram; collapsing every
twist to a single 4-valent vertex gives the twist-reduced diagram, carried
here as a combinatorial map plus per-vertex data: the signed twist length and
an ``axis`` bit selecting which opposite corner pair of the vertex holds the
augmentation triangles downstream.

Two-bridge links enter through the all-positive continued fraction of p/q
(Conway normal form); general links enter as diagram files.  Hyperbolicity
of the underlying link is always the caller's assertion.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from math import gcd

from .maps import CombinatorialMap, MapError, _int_entries, map_from_dict, map_to_dict

__all__ = [
    "TwistDecomposition",
    "TwistStats",
    "TwistReducedDiagram",
    "continued_fraction",
    "continued_fraction_value",
    "twist_stats",
    "two_bridge_diagram",
    "diagram_to_dict",
    "diagram_from_dict",
    "load_diagram",
    "save_diagram",
]


class TwistDecomposition(namedtuple("TwistDecomposition", "lengths")):
    """Signed half-turn counts of the twists of a diagram, in diagram order.

    ``lengths`` is a tuple of nonzero integers; construction, and so
    ``_replace``, checks it.
    """

    __slots__ = ()

    def __new__(cls, lengths: tuple[int, ...]):
        if not lengths:
            raise ValueError("a twist decomposition needs at least one twist")
        if any(not isinstance(n, int) or n == 0 for n in lengths):
            raise ValueError("twist lengths must be nonzero integers")
        return super().__new__(cls, lengths)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class TwistStats(namedtuple("TwistStats", "t c by_length")):
    """Derived statistics: t twists, c crossings, per-length tallies.

    ``by_length`` maps an unsigned twist length to its number of twists.
    """

    __slots__ = ()

    def exactly(self, i: int) -> int:
        """t_i: number of twists of length exactly i."""
        return self.by_length.get(i, 0)

    def at_least(self, i: int) -> int:
        """g_i: number of twists of length at least i."""
        return sum(count for length, count in self.by_length.items() if length >= i)

    @property
    def min_length(self) -> int:
        return min(self.by_length)


def twist_stats(d: TwistDecomposition) -> TwistStats:
    """Tally t, c = sum |n_i| and the per-length counts (signs ignored)."""
    sizes = [abs(n) for n in d.lengths]
    return TwistStats(t=len(sizes), c=sum(sizes), by_length=dict(Counter(sizes)))


def continued_fraction(p: int, q: int) -> list[int]:
    """All-positive continued fraction [a_1, ..., a_n] of p/q with a_n >= 2.

    Requires p >= 2, 0 < q < p, gcd(p, q) = 1; the expansion is the plain
    Euclidean one, which is the unique all-positive form ending in >= 2.
    """
    if not (isinstance(p, int) and isinstance(q, int)):
        raise ValueError("continued_fraction: p and q must be integers")
    if p < 2:
        raise ValueError(f"continued_fraction: need p >= 2, got {p}")
    if not 0 < q < p:
        raise ValueError(f"continued_fraction: need 0 < q < p, got q={q}")
    if gcd(p, q) != 1:
        raise ValueError(f"continued_fraction: p and q must be coprime, got gcd={gcd(p, q)}")
    digits = []
    a, b = p, q
    while b:
        digits.append(a // b)
        a, b = b, a % b
    return digits


def continued_fraction_value(digits: list[int]) -> Fraction:
    """Exact value a_1 + 1/(a_2 + 1/(... + 1/a_n))."""
    if not digits:
        raise ValueError("empty continued fraction")
    acc = Fraction(digits[-1])
    for a in reversed(digits[:-1]):
        acc = a + 1 / acc
    return acc


class TwistReducedDiagram(namedtuple("TwistReducedDiagram", "map axis lengths")):
    """4-regular diagram map with per-vertex axis bit and signed twist length.

    ``map`` is a :class:`~volbounds.maps.CombinatorialMap`; ``axis`` and
    ``lengths`` are tuples of integers with one entry per vertex.
    Construction, and so ``_replace``, checks them.  Vertices are indexed in
    the order of :func:`~volbounds.maps.vertex_orbits`.  ``axis[i]`` selects
    the opposite corner pair of vertex i carrying the augmentation
    triangles: with the vertex's sigma-cycle (e0, e1, e2, e3) as
    ``vertex_orbits`` lists it, axis 0 means corners (e0,e1) and (e2,e3);
    axis 1 means corners (e1,e2) and (e3,e0).
    """

    __slots__ = ()

    def __new__(cls, map: CombinatorialMap, axis: tuple[int, ...], lengths: tuple[int, ...]):
        census = map.census
        if not census.is_four_regular():
            raise MapError("degree", "twist-reduced diagram must be 4-regular")
        if len(axis) != census.V or len(lengths) != census.V:
            raise ValueError("axis and lengths must have one entry per vertex")
        if any(a not in (0, 1) for a in axis):
            raise ValueError("axis entries must be 0 or 1")
        if any(not isinstance(n, int) or n == 0 for n in lengths):
            raise ValueError("twist lengths must be nonzero integers")
        return super().__new__(cls, map, axis, lengths)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def t(self) -> int:
        return len(self.lengths)

    def decomposition(self) -> TwistDecomposition:
        return TwistDecomposition(self.lengths)


def two_bridge_diagram(p: int, q: int) -> TwistReducedDiagram:
    """Twist-reduced diagram of the two-bridge link b(p/q) in Conway normal form.

    One 4-valent vertex per continued-fraction digit; the twist regions
    alternate between the two horizontal strand pairs of the 4-plat, giving a
    map with V = t, E = 2t, F = t + 2.  Needs at least two twists to form a
    nondegenerate diagram graph.
    """
    digits = continued_fraction(p, q)
    t = len(digits)
    if t < 2:
        raise ValueError(
            f"two_bridge_diagram: b({p}/{q}) has a single twist region, degenerate as a map"
        )

    # Vertex i owns darts 4i..4i+3 in counterclockwise rotation order
    # (right-top, left-top, left-bottom, right-bottom).
    RT, LT, LB, RB = 0, 1, 2, 3
    sigma = list(range(1, 4 * t + 1))
    sigma[RB::4] = range(0, 4 * t, 4)

    # consecutive regions share the middle strand level: region i on the
    # upper band and i+1 on the lower for even i, the other way for odd i
    pairs = [
        (4 * i + RB, 4 * i + 4 + LT) if i % 2 == 0 else (4 * i + RT, 4 * i + 4 + LB)
        for i in range(t - 1)
    ]
    # next-nearest regions share their outer strand level
    pairs += [
        (4 * i + RT, 4 * i + 8 + LT) if i % 2 == 0 else (4 * i + RB, 4 * i + 8 + LB)
        for i in range(t - 2)
    ]
    # left plat closure
    pairs.append((LB, 4 + LB))
    # right plat closure and the strand running over the top of the diagram
    last, before = 4 * (t - 1), 4 * (t - 2)
    if t % 2 == 1:
        pairs += [(before + RB, last + RB), (last + RT, LT)]
    else:
        pairs += [(before + RT, last + RT), (last + RB, LT)]

    alpha = [-1] * (4 * t)
    for a, b in pairs:
        alpha[a], alpha[b] = b, a

    diagram_map = CombinatorialMap(tuple(alpha), tuple(sigma))
    # bowtie triangles sit West/East of every horizontally drawn twist:
    # corner pair (e1,e2)/(e3,e0) with the cycle anchored at dart 4i
    return TwistReducedDiagram(
        map=diagram_map,
        axis=(1,) * t,
        lengths=tuple(digits),
    )


# ---------------------------------------------------------------------------
# File format: map object extended with axis and lengths
# ---------------------------------------------------------------------------


def diagram_to_dict(d: TwistReducedDiagram) -> dict:
    out = map_to_dict(d.map)
    out["axis"] = list(d.axis)
    out["lengths"] = list(d.lengths)
    return out


def diagram_from_dict(data: dict) -> TwistReducedDiagram:
    m = map_from_dict(data)
    axis = _int_entries(data, "axis", "diagram")
    lengths = _int_entries(data, "lengths", "diagram")
    return TwistReducedDiagram(map=m, axis=axis, lengths=lengths)


def load_diagram(path) -> TwistReducedDiagram:
    import json
    with open(path) as fh:
        return diagram_from_dict(json.load(fh))


def save_diagram(d: TwistReducedDiagram, path) -> None:
    import json
    with open(path, "w") as fh:
        fh.write(json.dumps(diagram_to_dict(d)) + "\n")
