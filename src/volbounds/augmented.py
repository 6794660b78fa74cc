"""Ideal right-angled polyhedron from a fully augmented twist-reduced diagram.

Each twist region of a diagram gets a vertical augmentation circle; after
removing full and half turns, replacing each circle by a pair of triangles
with a common (red) vertex and contracting the strand segments in between,
the diagram becomes the 1-skeleton of an ideal right-angled polyhedron P with

    V = 3t, E = 6t, F = 3t + 2

for a connected twist-reduced input with t vertices: one red vertex per
twist, one black vertex per diagram edge, 2t dark triangles (the chessboard
colour class produced by the circles), and white faces whose sizes sum to 6t.
The link volumes satisfy vol(complement) = 2 vol(P), so all t-dependent
bounds downstream only need P's census.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .maps import CombinatorialMap, MapError, face_orbits, map_to_dict, vertex_orbits
from .twists import TwistReducedDiagram

__all__ = [
    "AugmentedPolyhedron",
    "AugmentError",
    "augment",
    "white_census_by_corner_count",
    "augmented_to_dict",
    "save_augmented",
]


class AugmentError(ValueError):
    """Assembled polyhedron violated an invariant (usually a bad axis marking)."""


@dataclass(frozen=True)
class AugmentedPolyhedron:
    """Polyhedron P with its red/black vertex split and dark/white face data."""

    map: CombinatorialMap
    red_vertices: frozenset[int]
    black_vertices: frozenset[int]
    dark_faces: frozenset[int]
    white_census: dict[int, int]  # white n-gon counts f_n; sizes sum to 6t

    @property
    def t(self) -> int:
        return len(self.red_vertices)


def augment(d: TwistReducedDiagram) -> AugmentedPolyhedron:
    """Build P from a twist-reduced diagram.

    Per diagram vertex v (rotation e0..e3, axis corners (a, b) and (a', b')):
    a red vertex with four spokes to the black vertices of the incident
    edges, plus base edges joining the black pair of each axis corner.  The
    local rotations are those of the bowtie picture (triangles on opposite
    sides of the strand pair); black rotations come from contracting the
    strand segment between two bowties.  All invariants are verified before
    returning; violations raise :class:`AugmentError`:

    - building P checks it is a genus-0 map (one composition for alpha_p,
      one orbit walk for sigma_p), and the census must read V, E, F = 3t,
      6t, 3t + 2, 4-regular, with no face smaller than a triangle;
    - each axis corner (a, b) must bound the face {3a, 3b+1, 3b+2}: the face
      keyed by its minimal dart must equal it as a sorted triple, and the
      2t dark triangles must be distinct;
    - no vertex of P may hold both a red dart (3x+2) and a black one (3x,
      3x+1), and there must be t red and 2t black vertices;
    - the white faces, the census's faces less the 2t dark triangles, must
      have sizes summing to 6t.
    """
    dm = d.map
    t = d.t
    if t < 2:
        raise AugmentError("augmentation needs at least two twists")
    n_darts = dm.dart_count

    # partner(dart) = other dart of its axis corner; first[dart] is 1 on the
    # corner's first element (the one whose sigma-image is the partner).
    # Vertex orbits e0..e3 come in canonical order, matching d.axis
    corners = []
    for (e0, e1, e2, e3), axis in zip(vertex_orbits(dm), d.axis):
        corners += ((e1, e2), (e3, e0)) if axis else ((e0, e1), (e2, e3))
    partner = [-1] * n_darts
    first = [0] * n_darts
    for a, b in corners:
        partner[a], partner[b] = b, a
        first[a] = 1

    # P darts per diagram dart x: 3x   spoke half at the black vertex,
    #                             3x+1 base half at the black vertex,
    #                             3x+2 spoke half at the red vertex
    n_p = 3 * n_darts
    alpha_p = [0] * n_p
    alpha_p[0::3] = range(2, n_p, 3)
    alpha_p[1::3] = [3 * y + 1 for y in partner]
    alpha_p[2::3] = range(0, n_p, 3)
    sigma_p = [0] * n_p
    # red rotations inherit the diagram vertex rotation
    sigma_p[2::3] = [3 * y + 2 for y in dm.sigma]
    # black rotations: the bowtie-local rotation at the circle/strand
    # crossing point is (black, base, spoke) for the corner's first dart,
    # else (black, spoke, base).  Contracting the black strand edge x--y
    # leaves the cycle head(x), tail(x), head(y), tail(y), head(x) = 3x + first[x].
    head = [3 * y + first[y] for y in dm.alpha]  # head(alpha(x)), by x
    spokes = range(0, n_p, 3)  # 3x, by x
    sigma_p[0::3] = [h if f else s + 1 for s, f, h in zip(spokes, first, head)]
    sigma_p[1::3] = [s if f else h for s, f, h in zip(spokes, first, head)]

    try:
        poly = CombinatorialMap(tuple(alpha_p), tuple(sigma_p))
    except MapError as exc:
        raise AugmentError(f"construction-inconsistency: assembled map invalid ({exc})") from exc
    census = poly.census

    if (census.V, census.E, census.F) != (3 * t, 6 * t, 3 * t + 2):
        raise AugmentError(
            "construction-inconsistency: expected "
            f"V,E,F = {3 * t},{6 * t},{3 * t + 2}, got {census.V},{census.E},{census.F}"
        )
    if not census.is_four_regular():
        raise AugmentError("construction-inconsistency: polyhedron is not 4-regular")
    if census.min_face_size < 3:
        # a bigon face means the axis marking put both triangles of some
        # bowtie against the same diagram bigon region
        raise AugmentError("construction-inconsistency: assembled polyhedron has a bigon face")

    # a face is keyed by its first dart, which is its minimal one
    faces = face_orbits(poly)
    face_at = {orbit[0]: fi for fi, orbit in enumerate(faces)}

    dark = set()
    for a, b in corners:
        expected = sorted((3 * a, 3 * b + 1, 3 * b + 2))
        fi = face_at.get(expected[0])
        if fi is None or sorted(faces[fi]) != expected:
            raise AugmentError(
                "construction-inconsistency: axis corner "
                f"({a},{b}) does not bound a dark triangle"
            )
        dark.add(fi)
    if len(dark) != 2 * t:
        raise AugmentError("construction-inconsistency: dark triangles not distinct")

    # every vertex of P has four darts (checked above)
    vertex_of = [0] * n_p
    for vi, (w, x, y, z) in enumerate(vertex_orbits(poly)):
        vertex_of[w] = vertex_of[x] = vertex_of[y] = vertex_of[z] = vi
    red = set(vertex_of[2::3])
    black = set(vertex_of[0::3]).union(vertex_of[1::3])
    if not red.isdisjoint(black):
        raise AugmentError("construction-inconsistency: mixed red/black vertex")
    if len(red) != t or len(black) != 2 * t:
        raise AugmentError("construction-inconsistency: wrong red/black vertex split")

    white = Counter(census.face_counts) - Counter({3: 2 * t})  # less the dark triangles
    if sum(size * count for size, count in white.items()) != 6 * t:
        raise AugmentError("construction-inconsistency: white face sizes do not sum to 6t")

    return AugmentedPolyhedron(
        map=poly,
        red_vertices=frozenset(red),
        black_vertices=frozenset(black),
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


def augmented_to_dict(p: AugmentedPolyhedron) -> dict:
    out = map_to_dict(p.map)
    out["red"] = sorted(p.red_vertices)
    out["dark_faces"] = sorted(p.dark_faces)
    out["white_census"] = {str(k): v for k, v in sorted(p.white_census.items())}
    return out


def save_augmented(p: AugmentedPolyhedron, path) -> None:
    Path(path).write_text(json.dumps(augmented_to_dict(p)) + "\n")
