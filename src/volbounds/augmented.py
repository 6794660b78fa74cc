"""Ideal right-angled polyhedron from a fully augmented twist-reduced diagram.

Each twist region of a diagram gets a vertical augmentation circle; after
removing full and half turns, the link complement cuts into two copies of
an ideal right-angled polyhedron P, so vol(complement) = 2 vol(P) and all
t-dependent bounds downstream only need P's census.  P is the medial
(Belletti's rectification) of the diagram split at its axis corners: each
vertex becomes two trivalent vertices, one per axis corner, joined by a new
edge (Purcell, "An introduction to fully augmented links", Contemp. Math.
541, 2011).  For a connected diagram with t vertices, P has V, E, F = 3t,
6t, 3t + 2: one red vertex per twist (the medial vertex of a new edge), one
black vertex per diagram edge, 2t dark triangles (the medial faces of the
trivalent vertices) and t + 2 white faces (those of the split), whose sizes
sum to 6t.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress

from .maps import CombinatorialMap, _darts, _medial_perms, face_orbits, vertex_orbits
from .twists import TwistReducedDiagram

__all__ = [
    "AugmentedPolyhedron",
    "AugmentError",
    "augment",
    "white_census_by_corner_count",
]


class AugmentError(ValueError):
    """Assembled polyhedron violated an invariant (usually a bad axis marking)."""


@dataclass(frozen=True)
class AugmentedPolyhedron:
    """Polyhedron P with its red/black vertex split and dark/white face data."""

    map: CombinatorialMap
    red_vertices: frozenset[int]  # the other 2t vertices are black
    dark_faces: frozenset[int]
    white_census: dict[int, int]  # white n-gon counts f_n; sizes sum to 6t

    @property
    def t(self) -> int:
        return len(self.red_vertices)


def augment(d: TwistReducedDiagram) -> AugmentedPolyhedron:
    """Build P from a twist-reduced diagram.

    P is the medial of the diagram split at its axis corners, so it is a
    4-regular genus-0 map with V, E, F = 3t, 6t, 3t + 2.  Only two checks
    can fail, each raising :class:`AugmentError`: fewer than two twists, and
    a bigon face, which P inherits from a split left with one by a bad axis
    marking.
    """
    dm = d.map
    t = d.t
    if t < 2:
        raise AugmentError("augmentation needs at least two twists")
    n = dm.dart_count

    # The split.  The 4-regular map's flat vertex orbits are blocks of four
    # in canonical order, matching d.axis, so column k of the blocks holds
    # dart k of each vertex; turned one step at the vertices on axis 1, the
    # columns read e0..e3 with axis corners (e0, e1) and (e2, e3).  The new
    # darts r = n + 2v and r' = r + 1 form an edge, and sigma runs e0 -> e1
    # -> r -> e0 and e2 -> e3 -> r' -> e2.
    rot = dm._vertex_darts
    e0, e1, e2, e3 = rot[0::4], rot[1::4], rot[2::4], rot[3::4]
    for v in compress(range(t), d.axis):
        e0[v], e1[v], e2[v], e3[v] = e1[v], e2[v], e3[v], e0[v]
    new = _darts(n + 2 * t)[n:]
    r, r2 = new[0::2], new[1::2]
    alpha = list(dm.alpha) + [0] * (2 * t)
    alpha[n::2], alpha[n + 1::2] = r2, r
    sigma = list(dm.sigma) + [0] * (2 * t)
    sigma[n::2], sigma[n + 1::2] = e0, e2  # r -> e0, r' -> e2
    for x, y in zip(e1, r):  # e1 -> r
        sigma[x] = y
    for x, y in zip(e3, r2):  # e3 -> r'
        sigma[x] = y

    poly = CombinatorialMap(*_medial_perms(alpha, sigma))
    census = poly.census
    if census.min_face_size < 3:
        raise AugmentError("construction-inconsistency: assembled polyhedron has a bigon face")

    # the medial faces on odd darts trace the split's trivalent vertices
    face_darts = poly._face_darts
    odd = [face_darts[s] & 1 for s in poly._face_starts[:-1]]
    dark = compress(_darts(len(odd)), odd)
    white = Counter(census.face_counts) - Counter({3: 2 * t})  # less the dark triangles

    return AugmentedPolyhedron(
        map=poly,
        red_vertices=frozenset(poly._vertex_of[2 * n::4]),  # medial vertices of the new edges
        dark_faces=frozenset(dark),
        white_census=dict(white),
    )


def white_census_by_corner_count(d: TwistReducedDiagram) -> dict[int, int]:
    """Independent white-census oracle that never assembles P.

    Each face of the diagram becomes one white face of P; an axis corner on
    its boundary contributes one base edge, any other corner two spokes, so
    the white size is (#axis corners) + 2 (#other corners).
    """
    dm = d.map
    axis_darts = set()
    # each orbit is the sigma-cycle from its minimal dart
    for orbit, axis in zip(vertex_orbits(dm), d.axis):
        axis_darts.add(orbit[axis])
        axis_darts.add(orbit[axis + 2])

    census: Counter[int] = Counter()
    for orbit in face_orbits(dm):
        # the corner after dart alpha(x) lies in the face of x
        size = sum(1 if dm.alpha[x] in axis_darts else 2 for x in orbit)
        census[size] += 1
    return dict(census)
