"""Dart-based combinatorial maps for planar (multi)graph embeddings.

A map on N darts is a pair of permutations: ``alpha`` (a fixed-point-free
involution pairing the two darts of each edge) and ``sigma`` (the rotation,
listing darts counterclockwise around each vertex).  Faces are the orbits of
``phi(d) = sigma[alpha[d]]``.  Genus 0 is required throughout:
V - E + F = 2 with V = #orbits(sigma), E = N/2, F = #orbits(phi).

Building a :class:`CombinatorialMap` checks these invariants once, and the
map carries what the check computed: its census and its vertex and face
orbits.  A map that exists is valid, so no operation checks its input or
walks its orbits again.  The check sorts nothing: one composition alpha o
alpha and sigma's one orbit walk accept a valid map, and only what they
refuse meets the ordered diagnosis.  Multigraphs are allowed at the map
level (link-diagram graphs have parallel edges); polyhedral-skeleton checks
are applied only where an operation needs them.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from operator import eq, itemgetter

__all__ = [
    "CombinatorialMap",
    "SkeletonCensus",
    "MapError",
    "validate_map",
    "vertex_orbits",
    "face_orbits",
    "medial",
    "medial_census",
    "dual",
    "is_three_connected",
    "tetrahedron",
    "cube",
    "octahedron",
    "pyramid",
    "bipyramid",
    "prism",
    "antiprism",
    "two_apex_pyramid",
    "twisted_antiprism",
    "map_from_face_cycles",
    "map_to_dict",
    "map_from_dict",
    "load_map",
    "save_map",
]


class MapError(ValueError):
    """A combinatorial-map invariant failed; ``violation`` names it."""

    def __init__(self, violation: str, message: str):
        super().__init__(f"{violation}: {message}")
        self.violation = violation


class CombinatorialMap:
    """Immutable dart-based embedding: edge involution alpha, rotation sigma.

    Construction checks every map invariant and raises :class:`MapError`
    with violation ``length-mismatch``, ``not-a-permutation`` (alpha, then
    sigma), ``fixed-dart``, ``not-involution``, ``disconnected`` or
    ``genus``, the first in that order, though alpha is tested by one
    composition and sigma inside its orbit walk.  A built map carries its
    census as ``census`` and the vertex and face orbits the check traced,
    which :func:`vertex_orbits` and :func:`face_orbits` hand out; none of
    them takes part in ``==``, ``hash`` or ``repr``.  Assigning or deleting
    an attribute raises ``AttributeError``.
    """

    __slots__ = ("alpha", "sigma", "census", "_vertex_orbits", "_face_orbits")

    def __init__(self, alpha: tuple[int, ...], sigma: tuple[int, ...]):
        census, verts, faces = _check_map(alpha, sigma)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "census", census)
        object.__setattr__(self, "_vertex_orbits", tuple(verts))
        object.__setattr__(self, "_face_orbits", tuple(faces))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable map")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable map")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alpha, self.sigma) == (other.alpha, other.sigma)

    def __hash__(self):
        return hash((self.alpha, self.sigma))

    def __repr__(self):
        return f"CombinatorialMap(alpha={self.alpha!r}, sigma={self.sigma!r})"

    def __reduce__(self):
        # rebuilt through the constructor, which checks the map again
        return (CombinatorialMap, (self.alpha, self.sigma))

    @property
    def dart_count(self) -> int:
        return len(self.alpha)


class SkeletonCensus(namedtuple("SkeletonCensus", "V E F degree_counts face_counts")):
    """Vertex/edge/face counts of a map, with per-degree and per-size tallies.

    ``degree_counts`` maps a vertex degree to its number of vertices and
    ``face_counts`` a face size to its number of faces; both are required.
    """

    __slots__ = ()

    @property
    def min_degree(self) -> int:
        return min(self.degree_counts) if self.degree_counts else 0

    @property
    def min_face_size(self) -> int:
        return min(self.face_counts) if self.face_counts else 0

    @property
    def v3(self) -> int:
        return self.degree_counts.get(3, 0)

    @property
    def v4(self) -> int:
        return self.degree_counts.get(4, 0)

    @property
    def p3(self) -> int:
        return self.face_counts.get(3, 0)

    def is_four_regular(self) -> bool:
        return set(self.degree_counts) == {4}


def _orbits(perm: tuple[int, ...]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Cycles of a permutation on 0..N-1, sorted by minimal element, and the
    index of each element's cycle; each cycle starts at its minimal element
    and follows ``perm``.  A non-permutation raises ``ValueError``, as a
    walk meets a dart already labelled or a negative entry (which indexing
    would wrap) before its start, or ``IndexError`` on an entry >= N."""
    n = len(perm)
    label = [-1] * n
    cycles = []
    for start, d in enumerate(perm):
        if label[start] >= 0:
            continue
        k = label[start] = len(cycles)
        cycle = [start]
        while label[d] < 0 <= d:
            label[d] = k
            cycle.append(d)
            d = perm[d]
        if d != start:
            raise ValueError(f"{d!r} is reached twice or lies outside 0..{n - 1}")
        cycles.append(tuple(cycle))
    return cycles, label


def vertex_orbits(m: CombinatorialMap) -> list[tuple[int, ...]]:
    """sigma-orbits in canonical order (sorted by minimal dart).

    Each orbit starts at its minimal dart d and reads d, sigma(d),
    sigma(sigma(d)), ...  The orbits were traced when ``m`` was built.
    """
    return list(m._vertex_orbits)


def face_orbits(m: CombinatorialMap) -> list[tuple[int, ...]]:
    """phi-orbits in canonical order (sorted by minimal dart).

    Each orbit starts at its minimal dart d and reads d, phi(d),
    phi(phi(d)), ...  The orbits were traced when ``m`` was built.
    """
    return list(m._face_orbits)


def _check_map(alpha: tuple[int, ...], sigma: tuple[int, ...]) -> tuple[SkeletonCensus, list, list]:
    """Verify all map invariants of ``(alpha, sigma)``; return the census and
    the vertex and face orbits."""
    if len(alpha) != len(sigma):
        raise MapError("length-mismatch", "alpha and sigma must have equal length")
    n = len(alpha)
    if n == 0:
        raise MapError("length-mismatch", "map must have at least one edge")
    darts = range(n)
    by_alpha = itemgetter(*alpha)  # seq -> (seq[alpha[0]], seq[alpha[1]], ...)
    try:
        # alpha o alpha = id makes alpha a permutation (a negative entry
        # breaks it, one >= n raises), and with no fixed dart n is even
        if by_alpha(alpha) != tuple(darts) or any(map(eq, alpha, darts)):
            raise ValueError("alpha is not a fixed-point-free involution")
        verts, vertex_of = _orbits(sigma)
    except (ValueError, IndexError, TypeError):
        # name the first violation in the documented order
        for name, perm in (("alpha", alpha), ("sigma", sigma)):
            if not all(isinstance(x, int) for x in perm) or sorted(perm) != list(darts):
                raise MapError("not-a-permutation", f"{name} is not a permutation of 0..{n - 1}")
        if n % 2 != 0:
            raise MapError("not-involution", "odd dart count cannot pair into edges")
        for d in darts:
            if alpha[d] == d:
                raise MapError("fixed-dart", f"alpha fixes dart {d}")
            if alpha[alpha[d]] != d:
                raise MapError("not-involution", f"alpha^2 moves dart {d}")

    # connectivity of the group action of <alpha, sigma>, vertex by vertex:
    # alpha leads from the darts of a vertex to those of its neighbours
    across = by_alpha(vertex_of)
    seen = [False] * len(verts)
    seen[0] = True
    stack = [0]
    reached = 0
    while stack:
        cyc = verts[stack.pop()]
        reached += len(cyc)
        for w in map(across.__getitem__, cyc):
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    if reached != n:
        raise MapError("disconnected", f"only {reached} of {n} darts reachable")

    faces = _orbits(by_alpha(sigma))[0]
    v, e, f = len(verts), n // 2, len(faces)
    if v - e + f != 2:
        raise MapError("genus", f"V-E+F = {v - e + f} != 2 (not a sphere embedding)")
    census = SkeletonCensus(
        V=v,
        E=e,
        F=f,
        degree_counts=dict(Counter(map(len, verts))),
        face_counts=dict(Counter(map(len, faces))),
    )
    return census, verts, faces


def validate_map(m: CombinatorialMap) -> SkeletonCensus:
    """The census of ``m``, stored when ``m`` was built and checked.

    Building the map is what raises :class:`MapError`; this call checks
    nothing again.
    """
    return m.census


def _require_polyhedral(c: SkeletonCensus) -> None:
    if c.min_degree < 3:
        raise MapError("degree", f"polyhedral map needs min degree 3, got {c.min_degree}")
    if c.min_face_size < 3:
        raise MapError("face-size", f"polyhedral map needs min face size 3, got {c.min_face_size}")


def medial_census(c: SkeletonCensus) -> SkeletonCensus:
    """Census of ``medial(m)`` from the census ``c`` of ``m``, without building it.

    Raises the :class:`MapError` that :func:`medial` raises for ``m``
    (``degree``, then ``face-size``).
    """
    _require_polyhedral(c)
    return SkeletonCensus(
        V=c.E,
        E=2 * c.E,
        F=c.V + c.F,
        degree_counts={4: c.E},
        face_counts=dict(Counter(c.degree_counts) + Counter(c.face_counts)),
    )


def medial(m: CombinatorialMap) -> CombinatorialMap:
    """Medial map: one 4-valent vertex per edge of the input.

    Darts 2d, 2d+1 are the two halves of the medial edge sitting in the
    corner after input dart d; the construction guarantees V_med = E,
    E_med = 2E, F_med = V + F, with a k-gonal medial face for every
    degree-k vertex and every k-gonal face of the input.
    """
    _require_polyhedral(m.census)
    n = m.dart_count
    sigma_inv = [0] * n
    for d in range(n):
        sigma_inv[m.sigma[d]] = d
    alpha_med = [0] * (2 * n)
    sigma_med = [0] * (2 * n)
    for d in range(n):
        alpha_med[2 * d] = 2 * d + 1
        alpha_med[2 * d + 1] = 2 * d
        sigma_med[2 * d] = 2 * sigma_inv[d] + 1
        sigma_med[2 * d + 1] = 2 * m.alpha[m.sigma[d]]
    return CombinatorialMap(tuple(alpha_med), tuple(sigma_med))


def dual(m: CombinatorialMap) -> CombinatorialMap:
    """Planar dual: vertices and faces swap; dual(dual(m)) == m on the nose."""
    return CombinatorialMap(m.alpha, tuple(map(m.sigma.__getitem__, m.alpha)))


def is_three_connected(m: CombinatorialMap) -> bool:
    """3-connectivity of the underlying simple graph, from its faces.

    Loops are dropped and each class of parallel edges keeps one edge; both
    deletions keep the embedding planar.  For a planar map with V >= 4 the
    simple graph is 3-connected iff every face is bounded by a simple cycle
    and any two faces meet in nothing, one vertex or one edge (the
    polyhedral-embedding criterion; Mohar and Thomassen, *Graphs on
    Surfaces*, 2001).  Two faces that share two vertices, or two vertices on
    two faces, form a 4-cycle of the vertex-face incidence graph; the
    criterion asks that every such 4-cycle be the one around an edge.  The
    4-cycles are listed from their highest-degree node (Chiba and Nishizeki,
    1985), so the cost is O(N log N) on N darts, the log for one sort.
    """
    census = m.census
    if census.V < 4:
        raise ValueError("is_three_connected: need at least 4 vertices")
    n = m.dart_count
    verts = vertex_orbits(m)
    vertex_of = [0] * n
    for i, cyc in enumerate(verts):
        for d in cyc:
            vertex_of[d] = i

    # rotation of the underlying simple graph on the kept darts
    kept = [False] * n
    simple_edges = set()
    for d in range(n):
        u, w = vertex_of[d], vertex_of[m.alpha[d]]
        if u != w and (min(u, w), max(u, w)) not in simple_edges:
            simple_edges.add((min(u, w), max(u, w)))
            kept[d] = kept[m.alpha[d]] = True
    sigma = [-1] * n
    for cyc in verts:
        ring = [d for d in cyc if kept[d]]
        for i, d in enumerate(ring):
            sigma[d] = ring[(i + 1) % len(ring)]

    # faces of the simple graph; each must visit distinct vertices.  The
    # incidence graph has nodes 0..V-1 for the vertices and V.. for the faces.
    face_of = [-1] * n
    incidence: list[list[int]] = [[] for _ in range(census.V)]
    for start in range(n):
        if not kept[start] or face_of[start] != -1:
            continue
        f = len(incidence)
        incidence.append([])
        d = start
        while face_of[d] == -1:
            face_of[d] = f
            incidence[vertex_of[d]].append(f)
            incidence[f].append(vertex_of[d])
            d = sigma[m.alpha[d]]
        if len(set(incidence[f])) != len(incidence[f]):
            return False

    # (vertex pair, face pair) of every edge: its ends and its two sides
    edge_quads = set()
    for d in range(n):
        if kept[d]:
            u, w = vertex_of[d], vertex_of[m.alpha[d]]
            f, g = face_of[d], face_of[m.alpha[d]]
            edge_quads.add((min(u, w), max(u, w), min(f, g), max(f, g)))

    # a 4-cycle x-y-z-y' is found from x, its first node in degree order;
    # y, y' and z all come later
    rank = [0] * len(incidence)
    order = sorted(range(len(incidence)), key=lambda x: -len(incidence[x]))
    for i, x in enumerate(order):
        rank[x] = i
    for x in order:
        middles: dict[int, list[int]] = {}
        for y in incidence[x]:
            if rank[y] > rank[x]:
                for z in incidence[y]:
                    if rank[z] > rank[x]:
                        middles.setdefault(z, []).append(y)
        for z, ys in middles.items():
            if len(ys) < 2:
                continue
            if len(ys) > 2:
                return False
            pair = (min(x, z), max(x, z))
            others = (min(ys), max(ys))
            quad = pair + others if x < census.V else others + pair
            if quad not in edge_quads:
                return False
    return True


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def map_from_face_cycles(faces: list[list[int]]) -> CombinatorialMap:
    """Build a map from face boundary cycles (vertex sequences).

    Each undirected edge must occur in exactly two face slots; face
    orientations are fixed automatically (BFS on the face adjacency) so that
    every edge is traversed once in each direction.  Only used by the
    simple-polyhedron builders; parallel edges are not representable here.
    """
    # locate the two (face, position) slots of each undirected edge
    slots: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for fi, cycle in enumerate(faces):
        if len(cycle) < 2 or len(set(cycle)) != len(cycle):
            raise ValueError(f"face {fi} is not a simple cycle: {cycle}")
        for pos in range(len(cycle)):
            u, w = cycle[pos], cycle[(pos + 1) % len(cycle)]
            slots.setdefault((min(u, w), max(u, w)), []).append((fi, pos))
    for edge, occ in slots.items():
        if len(occ) != 2:
            raise ValueError(f"edge {edge} occurs {len(occ)} times, expected 2")

    # orient faces consistently
    flipped = [None] * len(faces)
    flipped[0] = False
    queue = [0]
    adjacency: dict[int, list[tuple[int, bool]]] = {}
    for (u, w), ((f1, p1), (f2, p2)) in slots.items():
        d1 = faces[f1][p1] == u  # direction as listed
        d2 = faces[f2][p2] == u
        # consistent iff the two listed directions are opposite after flips
        adjacency.setdefault(f1, []).append((f2, d1 == d2))
        adjacency.setdefault(f2, []).append((f1, d1 == d2))
    while queue:
        f = queue.pop()
        for g, must_differ in adjacency.get(f, []):
            want = (not flipped[f]) if must_differ else flipped[f]
            if flipped[g] is None:
                flipped[g] = want
                queue.append(g)
            elif flipped[g] != want:
                raise ValueError("face cycles cannot be oriented consistently")
    if any(v is None for v in flipped):
        raise ValueError("face complex is disconnected")

    oriented = [list(reversed(cyc)) if flipped[fi] else list(cyc) for fi, cyc in enumerate(faces)]

    # darts = directed edges, numbered in face order
    dart_id: dict[tuple[int, int], int] = {}
    dart_list: list[tuple[int, int]] = []
    for cyc in oriented:
        for pos in range(len(cyc)):
            u, w = cyc[pos], cyc[(pos + 1) % len(cyc)]
            if (u, w) in dart_id:
                raise ValueError(f"directed edge {(u, w)} traversed twice")
            dart_id[(u, w)] = len(dart_list)
            dart_list.append((u, w))

    n = len(dart_list)
    alpha = [0] * n
    phi = [0] * n
    for cyc in oriented:
        for pos in range(len(cyc)):
            u, w = cyc[pos], cyc[(pos + 1) % len(cyc)]
            d = dart_id[(u, w)]
            alpha[d] = dart_id[(w, u)]
            nu, nw = cyc[(pos + 1) % len(cyc)], cyc[(pos + 2) % len(cyc)]
            phi[d] = dart_id[(nu, nw)]
    # phi = sigma o alpha  =>  sigma = phi o alpha
    sigma = tuple(phi[alpha[d]] for d in range(n))
    return CombinatorialMap(tuple(alpha), sigma)


def tetrahedron() -> CombinatorialMap:
    return map_from_face_cycles([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])


def cube() -> CombinatorialMap:
    return map_from_face_cycles(
        [
            [0, 3, 2, 1],
            [4, 5, 6, 7],
            [0, 1, 5, 4],
            [1, 2, 6, 5],
            [2, 3, 7, 6],
            [3, 0, 4, 7],
        ]
    )


def octahedron() -> CombinatorialMap:
    return map_from_face_cycles(
        [
            [0, 1, 2],
            [0, 2, 3],
            [0, 3, 4],
            [0, 4, 1],
            [5, 2, 1],
            [5, 3, 2],
            [5, 4, 3],
            [5, 1, 4],
        ]
    )


def pyramid(n: int) -> CombinatorialMap:
    """n-gonal pyramid: base 0..n-1, apex n."""
    if n < 3:
        raise ValueError(f"pyramid: need n >= 3, got {n}")
    base = list(reversed(range(n)))
    sides = [[i, (i + 1) % n, n] for i in range(n)]
    return map_from_face_cycles([base] + sides)


def bipyramid(n: int) -> CombinatorialMap:
    """n-gonal bipyramid: equator 0..n-1, apexes n (top) and n+1 (bottom)."""
    if n < 3:
        raise ValueError(f"bipyramid: need n >= 3, got {n}")
    upper = [[i, (i + 1) % n, n] for i in range(n)]
    lower = [[(i + 1) % n, i, n + 1] for i in range(n)]
    return map_from_face_cycles(upper + lower)


def prism(n: int) -> CombinatorialMap:
    """n-gonal prism: bottom 0..n-1, top n..2n-1."""
    if n < 3:
        raise ValueError(f"prism: need n >= 3, got {n}")
    bottom = [0] + list(range(n - 1, 0, -1))
    top = [n + i for i in range(n)]
    sides = [[i, (i + 1) % n, n + (i + 1) % n, n + i] for i in range(n)]
    return map_from_face_cycles([bottom, top] + sides)


def antiprism(n: int) -> CombinatorialMap:
    """n-antiprism: bottom 0..n-1, top n..2n-1, side belt of 2n triangles."""
    if n < 3:
        raise ValueError(f"antiprism: need n >= 3, got {n}")
    bottom = [0] + list(range(n - 1, 0, -1))
    top = [n + i for i in range(n)]
    ups = [[i, (i + 1) % n, n + i] for i in range(n)]
    downs = [[(i + 1) % n, n + (i + 1) % n, n + i] for i in range(n)]
    return map_from_face_cycles([bottom, top] + ups + downs)


def two_apex_pyramid(n: int) -> CombinatorialMap:
    """Pyramid over an n-gon with its apex split into two joined vertices.

    Base 0..n-1; apex n joins base 0 and 1; apex n+1 joins the other n-2
    base vertices.  Faces: the base n-gon, two quadrilaterals, n-2 triangles.
    """
    if n < 4:
        raise ValueError(f"two_apex_pyramid: need n >= 4, got {n}")
    x, y = n, n + 1
    base_rev = [0] + list(range(n - 1, 0, -1))
    tri_x = [0, 1, x]
    quad_right = [1, 2, y, x]
    tris_y = [[i, i + 1, y] for i in range(2, n - 1)]
    quad_left = [n - 1, 0, x, y]
    return map_from_face_cycles([base_rev, tri_x, quad_right] + tris_y + [quad_left])


def twisted_antiprism(n: int) -> CombinatorialMap:
    """Twisted n-antiprism, the rectification skeleton of the two-apex pyramid.

    Hand-derived face structure: vertices are the two-apex pyramid's edges
    (base edges B_0..B_{n-1}, one spoke per base vertex S_0..S_{n-1}, the
    apex edge A); 4-regular with 2n+3 faces.
    """
    if n < 4:
        raise ValueError(f"twisted_antiprism: need n >= 4, got {n}")
    B = list(range(n))
    S = list(range(n, 2 * n))
    A = 2 * n
    faces: list[list[int]] = []
    # one triangle per base vertex i: edges B_{i-1}, B_i, S_i
    for i in range(n):
        faces.append([B[(i - 1) % n], B[i], S[i]])
    faces.append([S[0], S[1], A])  # around the low apex
    faces.append(S[2:] + [A])  # around the high apex
    faces.append(B)  # the base n-gon
    faces.append([B[0], S[1], S[0]])  # triangle face of the pyramid at base edge 0
    faces.append([B[1], S[2], A, S[1]])  # quadrilateral side face
    for i in range(2, n - 1):
        faces.append([B[i], S[i + 1], S[i]])
    faces.append([B[n - 1], S[0], A, S[n - 1]])  # other quadrilateral
    return map_from_face_cycles(faces)


# ---------------------------------------------------------------------------
# Canonical JSON file format
# ---------------------------------------------------------------------------


def map_to_dict(m: CombinatorialMap) -> dict:
    return {"darts": m.dart_count, "alpha": list(m.alpha), "sigma": list(m.sigma)}


def _is_json_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_entries(data: dict, key: str, what: str) -> tuple[int, ...]:
    """The list ``data[key]`` of a file object as a tuple of integers.

    JSON ``true``, ``1.0`` and ``"1"`` are not integers: any such entry, a
    missing key or a non-list value raises ``MapError("format")``.
    """
    try:
        entries = tuple(data[key])
    except (KeyError, TypeError) as exc:
        raise MapError("format", f"bad {what} object: {exc}") from exc
    for i, x in enumerate(entries):
        if not _is_json_int(x):
            raise MapError("format", f"bad {what} object: {key}[{i}] = {x!r} is not an integer")
    return entries


def map_from_dict(data: dict) -> CombinatorialMap:
    try:
        darts = data["darts"]
    except (KeyError, TypeError) as exc:
        raise MapError("format", f"bad map object: {exc}") from exc
    if not _is_json_int(darts):
        raise MapError("format", f"bad map object: darts = {darts!r} is not an integer")
    alpha = _int_entries(data, "alpha", "map")
    sigma = _int_entries(data, "sigma", "map")
    if len(alpha) != darts or len(sigma) != darts:
        raise MapError("length-mismatch", "darts field disagrees with array lengths")
    return CombinatorialMap(alpha, sigma)


def load_map(path) -> CombinatorialMap:
    import json
    with open(path) as fh:
        return map_from_dict(json.load(fh))


def save_map(m: CombinatorialMap, path) -> None:
    import json
    with open(path, "w") as fh:
        fh.write(json.dumps(map_to_dict(m)) + "\n")
