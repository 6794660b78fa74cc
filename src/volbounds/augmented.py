"""Ideal right-angled polyhedron from a fully augmented twist-reduced diagram.

Each twist region of a diagram gets a vertical augmentation circle; after
removing full and half turns, replacing each circle by a pair of triangles
with a common (red) vertex and contracting the strand segments in between,
a connected twist-reduced diagram with t vertices becomes the 1-skeleton of
an ideal right-angled polyhedron P with V, E, F = 3t, 6t, 3t + 2: one red
vertex per twist, one black vertex per diagram edge, 2t dark triangles (the
chessboard colour class produced by the circles), and white faces whose
sizes sum to 6t.  All of that holds by construction (see :func:`augment`),
so only what a bad axis marking can break is checked.  The link volumes
satisfy vol(complement) = 2 vol(P), so all t-dependent bounds downstream
only need P's census.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

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
    strand segment between two bowties.

    Besides refusing t < 2, only two checks can fail, each raising
    :class:`AugmentError`: building P checks it is a genus-0 map, and a bad
    axis marking can leave a bigon face.  The rest holds by construction
    and is read off P, not checked:

    - 4-regular, with t red and 2t black vertices and none mixed: sigma_p
      copies each diagram vertex's 4-cycle onto the red darts 3x+2 and gives
      each diagram edge {x, alpha x} one black 4-cycle on 3x, 3x+1,
      3 alpha x, 3 alpha x + 1 (whatever ``first`` is on x and alpha x);
    - V, E, F = 3t, 6t, 3t + 2: P has 12t darts, and genus 0 gives F;
    - the 2t axis corners bound 2t distinct dark triangles: for (a, b),
      sigma(a) = b, first[a] = 1 and first[b] = 0, so phi_p runs 3b+2 ->
      3b+1 -> 3a -> 3b+2; no two corners share a, and 3a lies on one face;
    - the white sizes sum to 6t: the face sizes sum to 2E = 12t, and the
      dark triangles take 6t of it.
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
    if census.min_face_size < 3:
        # a bigon face means the axis marking put both triangles of some
        # bowtie against the same diagram bigon region
        raise AugmentError("construction-inconsistency: assembled polyhedron has a bigon face")

    # orbits start at their minimal dart; corner (a, b)'s triangle is
    # {3a, 3b+1, 3b+2}, and a vertex is red exactly when its darts are 3x+2
    face_at = {orbit[0]: fi for fi, orbit in enumerate(face_orbits(poly))}
    dark = {face_at[min(3 * a, 3 * b + 1)] for a, b in corners}
    red = {vi for vi, orbit in enumerate(vertex_orbits(poly)) if orbit[0] % 3 == 2}
    white = Counter(census.face_counts) - Counter({3: 2 * t})  # less the dark triangles

    return AugmentedPolyhedron(
        map=poly,
        red_vertices=frozenset(red),
        black_vertices=frozenset(range(census.V)).difference(red),
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
    import json
    with open(path, "w") as fh:
        fh.write(json.dumps(augmented_to_dict(p)) + "\n")
