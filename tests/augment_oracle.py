"""The former construction of ``volbounds.augmented.augment``, kept as an oracle.

It assembles P one rotation cycle at a time (``set_cycle``/``half``), with
darts 3x, 3x+1, 3x+2 per diagram dart x, finds each dark triangle through a
dart-to-face dict, classifies every vertex of P by the set of its dart kinds
and counts the white faces one by one.  The library builds P as the medial
of the diagram split at its axis corners, with darts 2e, 2e+1 per split
dart e; under the dart bijection of ``tests/test_augmented.py`` the two must
agree on every input.

``split_diagram`` splits a diagram at its axis corners one vertex at a
time, as an oracle of the split the library builds by slices."""

from __future__ import annotations

from collections import Counter

from volbounds.augmented import AugmentedPolyhedron, AugmentError
from volbounds.maps import CombinatorialMap, MapError, face_orbits, vertex_orbits
from volbounds.twists import TwistReducedDiagram


def _axis_corners(cycle: tuple[int, ...], axis: int) -> list[tuple[int, int]]:
    e = list(cycle)
    return [(e[axis], e[axis + 1]), (e[axis + 2], e[(axis + 3) % 4])]


def split_diagram(d: TwistReducedDiagram) -> CombinatorialMap:
    """The diagram with each vertex split into two trivalent vertices, one
    per axis corner, joined by a new edge.

    Keeps the diagram's n darts.  For vertex v, with its rotation
    (e0, e1, e2, e3) as ``vertex_orbits`` lists it, turned one step to
    (e1, e2, e3, e0) when ``axis[v]`` is 1, the new darts r = n + 2v and
    r' = n + 2v + 1 form an edge, and sigma becomes e0 -> e1 -> r -> e0 and
    e2 -> e3 -> r' -> e2.  In its medial, the new edges give P's red
    vertices, the trivalent vertices its dark triangles and the faces its
    white faces.
    """
    dm = d.map
    n = dm.dart_count
    alpha = list(dm.alpha) + [0] * (2 * d.t)
    sigma = list(dm.sigma) + [0] * (2 * d.t)
    for v, (rot, axis) in enumerate(zip(vertex_orbits(dm), d.axis)):
        e0, e1, e2, e3 = rot[axis:] + rot[:axis]
        r, r2 = n + 2 * v, n + 2 * v + 1
        alpha[r], alpha[r2] = r2, r
        sigma[e0], sigma[e1], sigma[r] = e1, r, e0
        sigma[e2], sigma[e3], sigma[r2] = e3, r2, e2
    return CombinatorialMap(tuple(alpha), tuple(sigma))


def oracle_augment(d: TwistReducedDiagram) -> AugmentedPolyhedron:
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
        dark_faces=frozenset(dark),
        white_census=dict(white),
    )
