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

# `maps` is imported where a diagram map is built or read, so that twist
# data and two-bridge fractions alone load no map code

__all__ = [
    "TwistDecomposition",
    "TwistStats",
    "TwistReducedDiagram",
    "continued_fraction",
    "twist_stats",
    "two_bridge_lengths",
    "two_bridge_white_census",
    "two_bridge_diagram",
    "diagram_to_dict",
    "diagram_from_dict",
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
    digits = []
    a, b = p, q
    while b:
        digit, rest = divmod(a, b)
        digits.append(digit)
        a, b = b, rest
    if a != 1:  # Euclid's last nonzero remainder is gcd(p, q)
        raise ValueError(f"continued_fraction: p and q must be coprime, got gcd={a}")
    return digits


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
            from .maps import MapError
            raise MapError("degree", "twist-reduced diagram must be 4-regular")
        if len(axis) != census.V or len(lengths) != census.V:
            raise ValueError("axis and lengths must have one entry per vertex")
        if any(a not in (0, 1) for a in axis):
            raise ValueError("axis entries must be 0 or 1")
        TwistDecomposition(lengths)  # checks the lengths
        return super().__new__(cls, map, axis, lengths)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def t(self) -> int:
        return len(self.lengths)

    def decomposition(self) -> TwistDecomposition:
        return TwistDecomposition(self.lengths)


def two_bridge_lengths(p: int, q: int) -> tuple[int, ...]:
    """Twist lengths of b(p/q)'s Conway normal form: the continued fraction
    of p/q, or of its mirror image p/(p - q) when 2q > p, so that the leading
    digit is at least 2.  Refused when it has a single digit, which happens
    exactly for the torus links q = 1 and q = p - 1 (see
    :func:`two_bridge_diagram`).

    Euclid runs once: when 2q > p, p/q = [1, a_2, a_3, ...], and the mirror
    p/(p - q) = 1 + q/(p - q) = [a_2 + 1, a_3, ...]."""
    digits = continued_fraction(p, q)
    if 2 * q > p:
        digits = [digits[1] + 1, *digits[2:]]
    if len(digits) < 2:
        raise ValueError(
            f"two_bridge_lengths: b({p}/{q}) has a single twist region: a (2, {p}) torus link"
        )
    return tuple(digits)


def two_bridge_white_census(t: int) -> dict[int, int]:
    """White census {3: 2, 4: t - 2, t + 1: 2} of the augmented polyhedron P
    of a two-bridge diagram with t >= 2 twists, read off without building P.

    Counts add where sizes meet ({3: 4} at t = 2, {3: 2, 4: 3} at t = 3).
    It is the degree census of the join K2 + P_t of an edge with a path on t
    vertices: that join is the dual of the diagram split at its axis corners,
    so P is its rectification too.

    Proof, by the corner-count rule of
    :func:`~volbounds.augmented.white_census_by_corner_count`: each face of
    :func:`two_bridge_diagram`'s map gives one white face of P, of size
    (#axis corners) + 2 (#other corners).  Draw vertex i = 0..t-1 as a
    horizontal twist with corners N, W, S, E (after its darts RT, LT, LB,
    RB); W and E are the axis corners, since every axis bit is 1.  Even i
    sit on the upper band and odd i on the lower, so the corner of i facing
    the middle strand is S for even i and N for odd i.  The t + 2 faces are:

    - the left bigon {S of 0, W of 1} and the right bigon {E of t-2, the
      middle corner of t-1}: one axis corner each, size 3;
    - for i = 0..t-3, the triangle {E of i, the middle corner of i+1, W of
      i+2}: two axis corners, size 4;
    - the region above, {N of each even i}, and the region below, {S of each
      odd i, W of 0}, with E of t-1 above for even t and below for odd t.
      For even t each holds t/2 other corners and one axis corner; for odd
      t the one above holds (t + 1)/2 other corners, the one below
      (t - 1)/2 and two axis corners.  Both have size t + 1.

    That uses each of the 4t corners once.  ``augment`` stays the oracle:
    the tests compare the two on every coprime p/q with p <= 200.
    """
    if t < 2:
        raise ValueError(f"two_bridge_white_census: need t >= 2 twists, got {t}")
    census = Counter({3: 2, 4: t - 2})
    census[t + 1] += 2
    return {n: f for n, f in sorted(census.items()) if f}


def two_bridge_diagram(p: int, q: int) -> TwistReducedDiagram:
    """Twist-reduced diagram of the two-bridge link b(p/q) in Conway normal form.

    One 4-valent vertex per digit of :func:`two_bridge_lengths` (the
    mirror's continued fraction when 2q > p); the twist regions
    alternate between the two horizontal strand pairs of the 4-plat, giving a
    map with V = t, E = 2t, F = t + 2.  Needs at least two twists to form a
    nondegenerate diagram graph.
    """
    from .maps import CombinatorialMap
    digits = two_bridge_lengths(p, q)
    t = len(digits)

    # Vertex i owns darts 4i..4i+3 in counterclockwise rotation order
    # (right-top, left-top, left-bottom, right-bottom).
    RT, LT, LB, RB = 0, 1, 2, 3
    darts = list(range(4 * t))
    sigma = darts[1:] + darts[:1]
    sigma[RB::4] = darts[0::4]

    # consecutive regions share the middle strand level: region i on the
    # upper band and i+1 on the lower for even i, the other way for odd i;
    # next-nearest regions share their outer strand level.  Each line joins
    # dart x of region i to dart y of region i + k for every i of one parity
    # below t - k, both ends a slice of stride 8.
    alpha = [-1] * (4 * t)
    for parity, x, k, y in ((0, RB, 1, LT), (1, RT, 1, LB), (0, RT, 2, LT), (1, RB, 2, LB)):
        here = slice(4 * parity + x, 4 * (t - k), 8)
        there = slice(4 * (parity + k) + y, 4 * t, 8)
        alpha[here], alpha[there] = darts[there], darts[here]
    # left plat closure, then the right plat closure and the strand running
    # over the top of the diagram
    last, before = 4 * (t - 1), 4 * (t - 2)
    if t % 2 == 1:
        closures = ((LB, 4 + LB), (before + RB, last + RB), (last + RT, LT))
    else:
        closures = ((LB, 4 + LB), (before + RT, last + RT), (last + RB, LT))
    for a, b in closures:
        alpha[a], alpha[b] = darts[b], darts[a]

    diagram_map = CombinatorialMap(tuple(alpha), tuple(sigma))
    # bowtie triangles sit West/East of every horizontally drawn twist:
    # corner pair (e1,e2)/(e3,e0) with the cycle anchored at dart 4i
    return TwistReducedDiagram(
        map=diagram_map,
        axis=(1,) * t,
        lengths=digits,
    )


# ---------------------------------------------------------------------------
# File format: map object extended with axis and lengths
# ---------------------------------------------------------------------------


def diagram_to_dict(d: TwistReducedDiagram) -> dict:
    from .maps import map_to_dict
    out = map_to_dict(d.map)
    out["axis"] = list(d.axis)
    out["lengths"] = list(d.lengths)
    return out


def diagram_from_dict(data: dict) -> TwistReducedDiagram:
    from .maps import _int_entries, map_from_dict
    m = map_from_dict(data)
    axis = _int_entries(data, "axis", "diagram")
    lengths = _int_entries(data, "lengths", "diagram")
    return TwistReducedDiagram(map=m, axis=axis, lengths=lengths)
