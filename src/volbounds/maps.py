"""Dart-based combinatorial maps for planar (multi)graph embeddings.

A map on N darts is a pair of permutations: ``alpha`` (a fixed-point-free
involution pairing the two darts of each edge) and ``sigma`` (the rotation,
listing darts counterclockwise around each vertex).  Faces are the orbits of
``phi(d) = sigma[alpha[d]]``.  Genus 0 is required throughout:
V - E + F = 2 with V = #orbits(sigma), E = N/2, F = #orbits(phi).

Building a :class:`CombinatorialMap` checks these invariants once, and the
map carries what the check computed: its census and its vertex and face
orbits.  A map that exists is valid, so no operation checks its input or
walks its orbits again.  The orbits are kept flat, as the walk visits them:
one dart order, the offset where each orbit starts in it, and for sigma
each dart's vertex label; :func:`vertex_orbits` and :func:`face_orbits`
slice per-orbit tuples out of that only when asked.  The check sorts
nothing: one composition alpha o alpha and sigma's one orbit walk accept a
valid map, and only what they refuse meets the ordered diagnosis.  Each
walk finds the start of its next orbit, the first dart not yet labelled,
with a C-level ``list.index`` scan, so its Python loop steps once per dart,
along the orbits.  Every dart number and orbit index the library makes
itself, in the builders and in the check, comes from one pool of ints
(:func:`_darts`), so the process holds one int object per dart number, and
the check's comparisons of a built map's entries meet equal pointers.
Multigraphs are allowed at the map level (link-diagram graphs have parallel
edges), and :func:`medial` takes any map.  :func:`is_three_connected`, the
one polyhedral-skeleton test, is applied only where an operation needs it.

The tetrahedron, pyramids, prisms and two-apex pyramids are built from face
cycles, whose edge slots are the map's darts; the octahedron, antiprisms and
twisted antiprisms are their medials, and the cube and bipyramids the duals
of the octahedron and prisms.  A medial's permutations are gathered, by
slices and ``itemgetter``, from the pool's list of its darts.
"""

from __future__ import annotations

from _thread import allocate_lock
from collections import Counter, namedtuple
from operator import eq, itemgetter, sub

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
    census as ``census`` and the orbits the check traced, flat: the darts of
    the vertex (face) orbits in walk order as ``_vertex_darts``
    (``_face_darts``), the offset of each orbit in them followed by the dart
    count as ``_vertex_starts`` (``_face_starts``), and each dart's vertex
    index as ``_vertex_of``.  :func:`vertex_orbits` and :func:`face_orbits`
    slice them into orbits.  None of these takes part in ``==``, ``hash``
    or ``repr``.  Assigning or deleting an attribute raises
    ``AttributeError``.
    """

    __slots__ = (
        "alpha", "sigma", "census",
        "_vertex_darts", "_vertex_starts", "_vertex_of", "_face_darts", "_face_starts",
    )

    def __init__(self, alpha: tuple[int, ...], sigma: tuple[int, ...]):
        census, (vertex_darts, vertex_starts, vertex_of), (face_darts, face_starts) = (
            _check_map(alpha, sigma)
        )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "census", census)
        object.__setattr__(self, "_vertex_darts", vertex_darts)
        object.__setattr__(self, "_vertex_starts", vertex_starts)
        object.__setattr__(self, "_vertex_of", vertex_of)
        object.__setattr__(self, "_face_darts", face_darts)
        object.__setattr__(self, "_face_starts", face_starts)

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


_pool: list[int] = []  # _pool[i] is i; replaced, never changed in place
_pool_growth = allocate_lock()


def _darts(n: int) -> list[int]:
    """The ints 0..n-1 as a fresh list, each the process's one object for
    its value.

    CPython shares only the ints -5..256, so ``list(range(n))`` makes new
    objects for every other dart of every map.  The builders and the map
    check take their dart numbers and orbit indices from here instead: a
    map holds no int object of its own, and comparing its entries with the
    check's meets equal pointers.  The pool grows, under a lock, by
    rebinding a longer copy, so a thread that reads it while another grows
    it still reads a correct prefix, and the first object made for a value
    stays its object.  A growth at least doubles the pool and stops at the
    count requested if that is more, so the pool holds fewer than 2N ints,
    N the largest count ever requested in the process.  Only what the
    library builds itself is numbered from here: parsed input keeps its own
    ints, and the check compares values, never identities.
    """
    global _pool
    pool = _pool
    if len(pool) < n:
        with _pool_growth:
            pool = _pool
            if len(pool) < n:
                pool = _pool = pool + list(range(len(pool), max(n, 2 * len(pool))))
    return pool[:n]


def _orbits(perm: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """Cycles of a permutation on 0..N-1, flat: the elements in walk order,
    the offset at which each cycle starts in it followed by N, and the index
    of each element's cycle.  Cycles are sorted by minimal element; each
    starts at its minimal element and follows ``perm``.  No list or tuple is
    made per cycle, and no Python loop visits the darts already walked: each
    next start is the first unlabelled dart, found in C by ``label.index``.
    Every int stored is ``perm``'s own or the pool's (:func:`_darts`): the
    elements are ``perm``'s entries, and each cycle's index and offset are
    the pool's ints for them, so no int object is kept per cycle.
    A non-permutation raises ``ValueError``, as a walk meets a dart already
    labelled or a negative entry (which indexing would wrap) before its
    start, or ``IndexError`` on an entry >= N."""
    n = len(perm)
    ints = _darts(n + 1)
    label = [-1] * n
    order = []
    starts = [0]
    append = order.append
    unlabelled = label.index
    pos = 0  # darts walked = offset of the next cycle
    start = -1
    for k in ints:  # the cycle index
        if pos == n:
            break
        start = unlabelled(-1, start + 1)
        label[start] = k
        append(start)
        d = perm[start]
        while label[d] < 0 <= d:
            label[d] = k
            append(d)
            d = perm[d]
        if d != start:
            raise ValueError(f"{d!r} is reached twice or lies outside 0..{n - 1}")
        order[pos] = d  # perm's own int for start, not the scan's
        pos = len(order)
        starts.append(ints[pos])
    return order, starts, label


def _sliced(darts: list[int], starts: list[int]) -> list[tuple[int, ...]]:
    return [tuple(darts[i:j]) for i, j in zip(starts, starts[1:])]


def vertex_orbits(m: CombinatorialMap) -> list[tuple[int, ...]]:
    """sigma-orbits in canonical order (sorted by minimal dart).

    Each orbit starts at its minimal dart d and reads d, sigma(d),
    sigma(sigma(d)), ...  The orbits were traced when ``m`` was built and
    stored flat; each call slices a fresh list of tuples out of them.
    """
    return _sliced(m._vertex_darts, m._vertex_starts)


def face_orbits(m: CombinatorialMap) -> list[tuple[int, ...]]:
    """phi-orbits in canonical order (sorted by minimal dart).

    Each orbit starts at its minimal dart d and reads d, phi(d),
    phi(phi(d)), ...  The orbits were traced when ``m`` was built and
    stored flat; each call slices a fresh list of tuples out of them.
    """
    return _sliced(m._face_darts, m._face_starts)


def _sizes(starts: list[int]) -> dict[int, int]:
    """Orbit size -> number of orbits, from the offsets of flat orbits."""
    return dict(Counter(map(sub, starts[1:], starts)))


def _check_map(alpha: tuple[int, ...], sigma: tuple[int, ...]) -> tuple[SkeletonCensus, tuple, tuple]:
    """Verify all map invariants of ``(alpha, sigma)``; return the census,
    the flat vertex orbits with each dart's vertex index (as
    :func:`_orbits` gives them) and the flat face orbits."""
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
        identity = tuple(_darts(n))
        if by_alpha(alpha) != identity or any(map(eq, alpha, identity)):
            raise ValueError("alpha is not a fixed-point-free involution")
        vertex_darts, vertex_starts, vertex_of = _orbits(sigma)
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
    # alpha leads from the darts of a vertex to those of its neighbours,
    # which read in walk order make one slice per vertex
    across = itemgetter(*vertex_darts)(by_alpha(vertex_of))
    v = len(vertex_starts) - 1
    seen = [False] * v
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for w in across[vertex_starts[u]:vertex_starts[u + 1]]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    if not all(seen):
        reached = sum(vertex_starts[u + 1] - vertex_starts[u] for u in range(v) if seen[u])
        raise MapError("disconnected", f"only {reached} of {n} darts reachable")

    face_darts, face_starts, _ = _orbits(by_alpha(sigma))
    e, f = n // 2, len(face_starts) - 1
    if v - e + f != 2:
        raise MapError("genus", f"V-E+F = {v - e + f} != 2 (not a sphere embedding)")
    census = SkeletonCensus(
        V=v,
        E=e,
        F=f,
        degree_counts=_sizes(vertex_starts),
        face_counts=_sizes(face_starts),
    )
    return census, (vertex_darts, vertex_starts, vertex_of), (face_darts, face_starts)


def validate_map(m: CombinatorialMap) -> SkeletonCensus:
    """The census of ``m``, stored when ``m`` was built and checked.

    Building the map is what raises :class:`MapError`; this call checks
    nothing again.
    """
    return m.census


def medial_census(c: SkeletonCensus) -> SkeletonCensus:
    """Census of ``medial(m)`` from the census ``c`` of ``m``, without building it."""
    return SkeletonCensus(
        V=c.E,
        E=2 * c.E,
        F=c.V + c.F,
        degree_counts={4: c.E},
        face_counts=dict(Counter(c.degree_counts) + Counter(c.face_counts)),
    )


def _gather(seq, at) -> tuple:
    """``(seq[at[0]], seq[at[1]], ...)`` in one C-level call.  ``at`` must
    not be empty; a single index still gives a 1-tuple, where ``itemgetter``
    would return the item itself."""
    return itemgetter(*at)(seq) if len(at) != 1 else (seq[at[0]],)


def _medial_perms(alpha, sigma) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """alpha and sigma of the medial of the map ``(alpha, sigma)``, numbered
    as :func:`medial` says; checks nothing.

    Both are gathered from the pool's darts (:func:`_darts`), so the medial
    holds the process's one int object per dart: alpha is its two halves by
    slices, sigma(2d + 1) = 2 alpha(sigma(d)) the even darts gathered at
    alpha(sigma(d)), and sigma(2 sigma(d)) = 2d + 1 the odd darts written at
    sigma(d).  The only Python-level loop is that last write, of one store
    per input dart.
    """
    n = len(sigma)
    darts = _darts(2 * n)
    evens, odds = darts[0::2], darts[1::2]
    alpha_med = [0] * (2 * n)
    alpha_med[0::2], alpha_med[1::2] = odds, evens
    sigma_med = [0] * (2 * n)
    sigma_med[1::2] = _gather(evens, _gather(alpha, sigma))
    after = [0] * n
    for s, d in zip(sigma, odds):
        after[s] = d
    sigma_med[0::2] = after
    return tuple(alpha_med), tuple(sigma_med)


def medial(m: CombinatorialMap) -> CombinatorialMap:
    """Medial map: one 4-valent vertex per edge of the input, for any map.

    Darts 2d, 2d+1 are the two halves of the medial edge sitting in the
    corner after input dart d; the construction guarantees V_med = E,
    E_med = 2E, F_med = V + F, with a k-gonal medial face for every
    degree-k vertex and every k-gonal face of the input.
    """
    return CombinatorialMap(*_medial_perms(m.alpha, m.sigma))


def dual(m: CombinatorialMap) -> CombinatorialMap:
    """Planar dual: vertices and faces swap; dual(dual(m)) == m on the nose."""
    return CombinatorialMap(m.alpha, tuple(map(m.sigma.__getitem__, m.alpha)))


def is_three_connected(m: CombinatorialMap) -> bool:
    """Whether ``m`` is the map of a 3-connected simple graph, from its faces.

    Every map gets an answer; one with fewer than four vertices is not.
    For a simple planar map with V >= 4 the graph is 3-connected iff every
    face is bounded by a simple cycle and any two faces meet in nothing, one
    vertex or one edge (the polyhedral-embedding criterion; Mohar and
    Thomassen, *Graphs on Surfaces*, 2001).  Two faces that share two
    vertices, or two vertices on two faces, form a 4-cycle of the
    vertex-face incidence graph.  Once every face is a simple cycle, each
    edge closes exactly one such 4-cycle, its two ends and its two sides
    (distinct faces, as a face through both sides of an edge would repeat a
    vertex), and no two edges close the same one.  So the criterion holds
    iff the incidence graph has exactly as many 4-cycles as the graph has
    edges.  They are counted from their first node in degree order (Chiba
    and Nishizeki, 1985), so the cost is O(N log N) on N darts, the log for
    one sort.  The faces are the ones the map's check traced.

    Loops and parallel edges fail the same tests.  With V >= 4 a loop bounds
    a 1-gon on at most one side, and its face on the other side repeats the
    loop's vertex.  Else m >= 2 edges joining u and w cut the sphere into m
    lenses, each with a face through u and w and one (holding the other
    vertices) with two: m + 1 common faces close m(m + 1)/2 > m 4-cycles.
    """
    if m.census.V < 4:
        return False

    # incidence nodes 0..V-1 are vertices, V.. faces; a face must visit
    # distinct vertices
    around = _gather(m._vertex_of, m._face_darts)
    starts = m._face_starts
    incidence: list[list[int] | tuple[int, ...]] = [[] for _ in range(m.census.V)]
    for i, j in zip(starts, starts[1:]):
        face = around[i:j]
        if len(set(face)) != len(face):
            return False
        for v in face:
            incidence[v].append(len(incidence))
        incidence.append(face)

    # a 4-cycle x-y-z-y' is counted from x, its first node in degree order:
    # each two later nodes y, y' joining x to a later z close one
    rank = [0] * len(incidence)
    order = sorted(range(len(incidence)), key=lambda x: -len(incidence[x]))
    for i, x in enumerate(order):
        rank[x] = i
    cycles = 0
    for x in order:
        opposite = Counter()
        for y in incidence[x]:
            if rank[y] > rank[x]:
                opposite.update(z for z in incidence[y] if rank[z] > rank[x])
        cycles += sum(k * (k - 1) // 2 for k in opposite.values())
    return cycles == m.census.E


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def map_from_face_cycles(faces: list[list[int]]) -> CombinatorialMap:
    """Build a map from face boundary cycles (vertex sequences).

    Slot (f, p) runs from ``faces[f][p]`` to the next vertex of face f.
    Each undirected edge must occur in exactly two slots, and these are its
    two darts: alpha swaps them.  Faces are turned as needed (BFS from face
    0 through each face's edge slots) so that every edge is run once each
    way.  Face f's darts follow its oriented cycle from ``base_f``, the
    count of slots before it: slot (f, p) is dart ``base_f + p``, or
    ``base_f + (k_f - 2 - p) mod k_f`` if the k_f-gon f is turned; phi
    steps along each face.  Parallel edges are not representable here.  It
    builds the tetrahedron, pyramids, prisms and two-apex pyramids; the
    other families are made from these by :func:`medial` and :func:`dual`.
    """
    if not faces:
        raise ValueError("a map needs at least one face cycle")
    # the two slots of each undirected edge; own[f] lists them per slot of f
    slots: dict[tuple[int, int], list[tuple[int, int]]] = {}
    own = []
    for f, cycle in enumerate(faces):
        if len(cycle) < 2 or len(set(cycle)) != len(cycle):
            raise ValueError(f"face {f} is not a simple cycle: {cycle}")
        own.append([slots.setdefault((u, w) if u < w else (w, u), [])
                    for u, w in zip(cycle, [*cycle[1:], cycle[0]])])
        for p, occ in enumerate(own[f]):
            occ.append((f, p))
    for edge, occ in slots.items():
        if len(occ) != 2:
            raise ValueError(f"edge {edge} occurs {len(occ)} times, expected 2")

    # orient: an edge's two slots that start at the same vertex need
    # exactly one of their faces turned
    turned = [None] * len(faces)
    turned[0] = False
    queue = [0]
    while queue:
        f = queue.pop()
        for (f1, p1), (f2, p2) in own[f]:
            g = f2 if f1 == f else f1
            want = turned[f] != (faces[f1][p1] == faces[f2][p2])
            if turned[g] is None:
                turned[g] = want
                queue.append(g)
            elif turned[g] != want:
                raise ValueError("face cycles cannot be oriented consistently")
    if None in turned:
        raise ValueError("face complex is disconnected")

    ints = _darts(sum(map(len, faces)))
    darts, phi = [], []  # darts[f][p] is slot (f, p)'s dart
    for k, turn in zip(map(len, faces), turned):
        base = len(phi)
        own_darts = ints[base:base + k]
        darts.append(own_darts[-2::-1] + own_darts[-1:] if turn else own_darts)
        phi += own_darts[1:]
        phi.append(own_darts[0])
    alpha = [0] * len(phi)
    for (f1, p1), (f2, p2) in slots.values():
        alpha[darts[f1][p1]], alpha[darts[f2][p2]] = darts[f2][p2], darts[f1][p1]
    # phi = sigma o alpha  =>  sigma = phi o alpha
    return CombinatorialMap(tuple(alpha), _gather(phi, alpha))


def tetrahedron() -> CombinatorialMap:
    return map_from_face_cycles([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])


def cube() -> CombinatorialMap:
    return dual(octahedron())


def octahedron() -> CombinatorialMap:
    return medial(tetrahedron())


def pyramid(n: int) -> CombinatorialMap:
    """n-gonal pyramid: base 0..n-1, apex n."""
    if n < 3:
        raise ValueError(f"pyramid: need n >= 3, got {n}")
    base = list(reversed(range(n)))
    sides = [[i, (i + 1) % n, n] for i in range(n)]
    return map_from_face_cycles([base] + sides)


def bipyramid(n: int) -> CombinatorialMap:
    """n-gonal bipyramid, dual of the n-gonal prism."""
    if n < 3:
        raise ValueError(f"bipyramid: need n >= 3, got {n}")
    return dual(prism(n))


def prism(n: int) -> CombinatorialMap:
    """n-gonal prism: bottom 0..n-1, top n..2n-1."""
    if n < 3:
        raise ValueError(f"prism: need n >= 3, got {n}")
    bottom = [0] + list(range(n - 1, 0, -1))
    top = [n + i for i in range(n)]
    sides = [[i, (i + 1) % n, n + (i + 1) % n, n + i] for i in range(n)]
    return map_from_face_cycles([bottom, top] + sides)


def antiprism(n: int) -> CombinatorialMap:
    """n-antiprism, medial of the n-gonal pyramid: two n-gons and 2n triangles."""
    if n < 3:
        raise ValueError(f"antiprism: need n >= 3, got {n}")
    return medial(pyramid(n))


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
    """Twisted n-antiprism, medial of the two-apex pyramid: 2n+1 vertices, 2n+3 faces."""
    if n < 4:
        raise ValueError(f"twisted_antiprism: need n >= 4, got {n}")
    return medial(two_apex_pyramid(n))


# ---------------------------------------------------------------------------
# Canonical JSON file format
# ---------------------------------------------------------------------------


def map_to_dict(m: CombinatorialMap) -> dict:
    return {"darts": m.dart_count, "alpha": list(m.alpha), "sigma": list(m.sigma)}


def _is_json_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _entry(data: dict, key: str, what: str):
    """``data[key]`` of a file object; ``MapError("format")`` if ``data`` is
    not an object or lacks ``key``."""
    if not isinstance(data, dict):
        raise MapError("format", f"bad {what} object: not a JSON object")
    if key not in data:
        raise MapError("format", f"bad {what} object: missing key {key!r}")
    return data[key]


def _int_entries(data: dict, key: str, what: str) -> tuple[int, ...]:
    """The list ``data[key]`` of a file object as a tuple of integers.

    JSON ``true``, ``1.0`` and ``"1"`` are not integers: any such entry, a
    missing key or a non-list value raises ``MapError("format")``.
    """
    entries = _entry(data, key, what)
    if not isinstance(entries, (list, tuple)):
        raise MapError("format", f"bad {what} object: {key} is not a list")
    for i, x in enumerate(entries):
        if not _is_json_int(x):
            raise MapError("format", f"bad {what} object: {key}[{i}] = {x!r} is not an integer")
    return tuple(entries)


def map_from_dict(data: dict) -> CombinatorialMap:
    darts = _entry(data, "darts", "map")
    if not _is_json_int(darts):
        raise MapError("format", f"bad map object: darts = {darts!r} is not an integer")
    alpha = _int_entries(data, "alpha", "map")
    sigma = _int_entries(data, "sigma", "map")
    if len(alpha) != darts or len(sigma) != darts:
        raise MapError("length-mismatch", "darts field disagrees with array lengths")
    return CombinatorialMap(alpha, sigma)
