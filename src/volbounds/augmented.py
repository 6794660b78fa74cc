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


def _axis_corners(cycle: tuple[int, ...], axis: int) -> list[tuple[int, int]]:
    """The two opposite corners (a, sigma(a)) selected by the axis bit.

    ``cycle`` is the vertex's sigma-cycle as :func:`vertex_orbits` lists it.
    """
    e = list(cycle)
    return [(e[axis], e[axis + 1]), (e[axis + 2], e[(axis + 3) % 4])]


def augment(d: TwistReducedDiagram) -> AugmentedPolyhedron:
    """Build P from a twist-reduced diagram.

    Per diagram vertex v (rotation e0..e3, axis corners (a, b) and (a', b')):
    a red vertex with four spokes to the black vertices of the incident
    edges, plus base edges joining the black pair of each axis corner.  The
    local rotations are those of the bowtie picture (triangles on opposite
    sides of the strand pair); black rotations come from contracting the
    strand segment between two bowties.  All invariants are verified before
    returning; violations raise :class:`AugmentError`.
    """
    dm = d.map
    t = d.t
    if t < 2:
        raise AugmentError("augmentation needs at least two twists")
    n_darts = dm.dart_count

    cycles = vertex_orbits(dm)  # canonical order, matches d.axis / d.lengths

    # partner(dart) = other dart of its axis corner; first[dart] marks the
    # corner's first element (the one whose sigma-image is the partner)
    partner = [-1] * n_darts
    first = [False] * n_darts
    corners = []
    for cyc, axis in zip(cycles, d.axis):
        for a, b in _axis_corners(cyc, axis):
            partner[a], partner[b] = b, a
            first[a] = True
            corners.append((a, b))

    # edge ids and black vertices: one per alpha-orbit
    edge_of = [-1] * n_darts
    n_edges = 0
    for dart in range(n_darts):
        if edge_of[dart] == -1:
            edge_of[dart] = edge_of[dm.alpha[dart]] = n_edges
            n_edges += 1

    # P darts per diagram dart x: 3x   spoke half at the black vertex,
    #                             3x+1 base half at the black vertex,
    #                             3x+2 spoke half at the red vertex
    alpha_p = [0] * (3 * n_darts)
    sigma_p = [0] * (3 * n_darts)
    for x in range(n_darts):
        alpha_p[3 * x] = 3 * x + 2
        alpha_p[3 * x + 2] = 3 * x
        alpha_p[3 * x + 1] = 3 * partner[x] + 1

    def set_cycle(darts: list[int]) -> None:
        for i, dd in enumerate(darts):
            sigma_p[dd] = darts[(i + 1) % len(darts)]

    for cyc in cycles:  # red rotations inherit the diagram vertex rotation
        set_cycle([3 * x + 2 for x in cyc])
    for x in range(n_darts):  # black rotations: contracted strand segment
        y = dm.alpha[x]
        if x > y:
            continue

        def half(z: int) -> list[int]:
            # bowtie-local rotation at the circle/strand crossing point:
            # (black, base, spoke) for the corner's first dart, else
            # (black, spoke, base); the black strand edge is contracted away
            return [3 * z + 1, 3 * z] if first[z] else [3 * z, 3 * z + 1]

        set_cycle(half(x) + half(y))

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

    faces = face_orbits(poly)
    face_of_dart = {}
    for fi, orbit in enumerate(faces):
        for dd in orbit:
            face_of_dart[dd] = fi

    dark = set()
    for a, b in corners:
        expected = {3 * a, 3 * b + 1, 3 * b + 2}
        fi = face_of_dart[3 * b + 1]
        if set(faces[fi]) != expected:
            raise AugmentError(
                "construction-inconsistency: axis corner "
                f"({a},{b}) does not bound a dark triangle"
            )
        dark.add(fi)
    if len(dark) != 2 * t:
        raise AugmentError("construction-inconsistency: dark triangles not distinct")

    p_verts = vertex_orbits(poly)
    red = set()
    black = set()
    for vi, orbit in enumerate(p_verts):
        kinds = {md % 3 for md in orbit}
        if kinds == {2}:
            red.add(vi)
        elif kinds <= {0, 1}:
            black.add(vi)
        else:
            raise AugmentError("construction-inconsistency: mixed red/black vertex")
    if len(red) != t or len(black) != 2 * t:
        raise AugmentError("construction-inconsistency: wrong red/black vertex split")

    white = Counter(len(faces[fi]) for fi in range(len(faces)) if fi not in dark)
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
