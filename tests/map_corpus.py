"""The map oracles and the map surgery the tests use.

``brute_force_three_connected`` is the library's former implementation: it
removes every pair of vertices of the underlying simple graph in turn and
checks that the rest stays connected, O(V^2 E).  It shares no code with the
face-incidence test in ``volbounds.maps.is_three_connected``.

``oracle_check_map`` and ``oracle_orbits`` are the library's former map
check and orbit tracer: one loop over the darts for fixed darts and the
involution, a dart-by-dart connectivity search, and both orbit sets traced
again by every caller.

``maps_isomorphic`` tests two maps for a dart bijection that carries one
onto the other, reflection allowed, by a pairwise anchor search.  The
library does not use it; the tests compare constructions with it.

``medial_from_orbits`` and ``dual_from_orbits`` build the medial and the
dual from a map's orbits alone, as face cycles (``medial_faces`` and
``dual_faces``) for ``map_from_face_cycles``.
The library builds the octahedron, antiprisms, twisted antiprisms, cube and
bipyramids with ``medial`` and ``dual``, so the tests compare those two with
these oracles rather than with the library's builders.

``oracle_medial_perms`` is the library's former medial construction, one
comprehension per half of sigma, with the medial's dart numbers computed as
2d and 2d + 1; ``volbounds.maps._medial_perms`` gathers them from one list
of darts instead.

``oracle_map_from_face_cycles`` is the library's former face-cycle
construction: it builds a face-adjacency dict for the orientation search,
reversed copies of the faces it turns, and a dict from directed vertex
pairs to darts, from which it reads alpha back by reverse lookup.
``volbounds.maps.map_from_face_cycles`` takes the darts to be the edge slots
themselves and numbers them as this one does.

``continued_fraction_value`` evaluates a continued fraction exactly; the
library only expands fractions, so the tests invert that with it.
``oracle_continued_fraction`` is the library's former expansion, which
tested gcd(p, q) before running Euclid.

``simple`` tells whether a map has no loop and no two edges with the same
ends; ``brute_force_three_connected`` looks only at the simple graph under a
map, so a map is polyhedral when both hold.

``three_connectivity_corpus`` builds the differential corpus: polyhedra
(3-connected), maps made from them that are not, and maps whose simple
graph is 3-connected but which have loops or parallel edges added (these
are not polyhedral).
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import gcd

from volbounds.maps import (
    CombinatorialMap,
    MapError,
    SkeletonCensus,
    antiprism,
    bipyramid,
    cube,
    dual,
    face_orbits,
    map_from_face_cycles,
    medial,
    octahedron,
    prism,
    pyramid,
    tetrahedron,
    two_apex_pyramid,
    twisted_antiprism,
    validate_map,
    vertex_orbits,
)
from volbounds.twists import two_bridge_diagram


def continued_fraction_value(digits: list[int]) -> Fraction:
    """Exact value a_1 + 1/(a_2 + 1/(... + 1/a_n))."""
    if not digits:
        raise ValueError("empty continued fraction")
    acc = Fraction(digits[-1])
    for a in reversed(digits[:-1]):
        acc = a + 1 / acc
    return acc


def oracle_continued_fraction(p: int, q: int) -> list[int]:
    """Continued fraction of p/q, refusing bad input first, the gcd with
    ``math.gcd``."""
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


def _vertex_of(m: CombinatorialMap) -> list[int]:
    vertex_of = [0] * m.dart_count
    for i, cyc in enumerate(vertex_orbits(m)):
        for d in cyc:
            vertex_of[d] = i
    return vertex_of


def simple(m: CombinatorialMap) -> bool:
    """No loop, and no two edges with the same ends."""
    vertex_of = _vertex_of(m)
    ends = [
        frozenset((vertex_of[d], vertex_of[m.alpha[d]]))
        for d in range(m.dart_count)
        if d < m.alpha[d]
    ]
    return all(len(e) == 2 for e in ends) and len(set(ends)) == len(ends)


def brute_force_three_connected(m: CombinatorialMap) -> bool:
    """3-connectivity of the underlying simple graph by removing every vertex pair."""
    census = validate_map(m)
    if census.V < 4:
        raise ValueError("brute_force_three_connected: need at least 4 vertices")
    vertex_of = _vertex_of(m)
    adj = [set() for _ in range(census.V)]
    for d in range(m.dart_count):
        u, w = vertex_of[d], vertex_of[m.alpha[d]]
        if u != w:
            adj[u].add(w)
            adj[w].add(u)
    nv = len(adj)

    def connected_without(removed: set[int]) -> bool:
        remaining = [v for v in range(nv) if v not in removed]
        seen = {remaining[0]}
        stack = [remaining[0]]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in removed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(remaining)

    return all(connected_without({u, w}) for u in range(nv) for w in range(u + 1, nv))


def medial_faces(m: CombinatorialMap) -> list[list[int]]:
    """Face cycles of the medial of a polyhedral map: a face per vertex and
    per face of ``m``, listing its edges, each edge named by its smaller
    dart."""
    edge = [min(d, a) for d, a in enumerate(m.alpha)]
    return [[edge[d] for d in orbit] for orbit in vertex_orbits(m) + face_orbits(m)]


def dual_faces(m: CombinatorialMap) -> list[list[int]]:
    """Face cycles of the dual of a polyhedral map: a face per vertex of
    ``m``, listing the faces of its darts."""
    face_of = [0] * m.dart_count
    for i, orbit in enumerate(face_orbits(m)):
        for d in orbit:
            face_of[d] = i
    return [[face_of[d] for d in orbit] for orbit in vertex_orbits(m)]


def medial_from_orbits(m: CombinatorialMap) -> CombinatorialMap:
    return map_from_face_cycles(medial_faces(m))


def dual_from_orbits(m: CombinatorialMap) -> CombinatorialMap:
    return map_from_face_cycles(dual_faces(m))


def oracle_medial_perms(alpha, sigma) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """alpha and sigma of the medial of ``(alpha, sigma)``: darts 2d and
    2d + 1 are the two halves of the medial edge in the corner after dart d."""
    n = len(sigma)
    sigma_inv = [0] * n
    for d, s in enumerate(sigma):
        sigma_inv[s] = d
    alpha_med = [0] * (2 * n)
    alpha_med[0::2] = range(1, 2 * n, 2)
    alpha_med[1::2] = range(0, 2 * n, 2)
    sigma_med = [0] * (2 * n)
    sigma_med[0::2] = [2 * d + 1 for d in sigma_inv]
    sigma_med[1::2] = [2 * alpha[s] for s in sigma]
    return tuple(alpha_med), tuple(sigma_med)


def oracle_map_from_face_cycles(faces: list[list[int]]) -> CombinatorialMap:
    """Build a map from face boundary cycles (vertex sequences).

    Each undirected edge must occur in exactly two face slots; face
    orientations are fixed automatically (BFS on the face adjacency) so that
    every edge is traversed once in each direction.  Parallel edges are not
    representable here.
    """
    if not faces:
        raise ValueError("a map needs at least one face cycle")
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

    # darts = directed edges, numbered in face order, so phi steps along each
    # face; oriented faces run each edge once each way
    dart_id: dict[tuple[int, int], int] = {}
    phi: list[int] = []
    for cyc in oriented:
        k, first = len(cyc), len(phi)
        for pos in range(k):
            dart_id[(cyc[pos], cyc[(pos + 1) % k])] = first + pos
            phi.append(first + (pos + 1) % k)
    alpha = [dart_id[(w, u)] for u, w in dart_id]
    # phi = sigma o alpha  =>  sigma = phi o alpha
    sigma = tuple(phi[a] for a in alpha)
    return CombinatorialMap(tuple(alpha), sigma)


# ---------------------------------------------------------------------------
# The former map check
# ---------------------------------------------------------------------------


def oracle_orbits(perm: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycles of a permutation on 0..N-1, sorted by minimal element; each
    cycle starts at its minimal element and follows ``perm``."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = []
        d = start
        while not seen[d]:
            seen[d] = True
            cycle.append(d)
            d = perm[d]
        cycles.append(tuple(cycle))
    return cycles


def _oracle_check_permutation(name: str, perm: tuple[int, ...]) -> None:
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise MapError("not-a-permutation", f"{name} is not a permutation of 0..{n - 1}")


def oracle_check_map(alpha: tuple[int, ...], sigma: tuple[int, ...]) -> SkeletonCensus:
    """Verify all map invariants of ``(alpha, sigma)`` and return the census."""
    if len(alpha) != len(sigma):
        raise MapError("length-mismatch", "alpha and sigma must have equal length")
    n = len(alpha)
    if n == 0:
        raise MapError("length-mismatch", "map must have at least one edge")
    _oracle_check_permutation("alpha", alpha)
    _oracle_check_permutation("sigma", sigma)
    if n % 2 != 0:
        raise MapError("not-involution", "odd dart count cannot pair into edges")
    for d in range(n):
        if alpha[d] == d:
            raise MapError("fixed-dart", f"alpha fixes dart {d}")
        if alpha[alpha[d]] != d:
            raise MapError("not-involution", f"alpha^2 moves dart {d}")

    # connectivity of the group action of <alpha, sigma>
    seen = [False] * n
    stack = [0]
    seen[0] = True
    reached = 1
    while stack:
        d = stack.pop()
        for nxt in (alpha[d], sigma[d]):
            if not seen[nxt]:
                seen[nxt] = True
                reached += 1
                stack.append(nxt)
    if reached != n:
        raise MapError("disconnected", f"only {reached} of {n} darts reachable")

    verts = oracle_orbits(sigma)
    faces = oracle_orbits(tuple(sigma[alpha[d]] for d in range(n)))
    v, e, f = len(verts), n // 2, len(faces)
    if v - e + f != 2:
        raise MapError("genus", f"V-E+F = {v - e + f} != 2 (not a sphere embedding)")
    return SkeletonCensus(
        V=v,
        E=e,
        F=f,
        degree_counts=dict(Counter(len(c) for c in verts)),
        face_counts=dict(Counter(len(c) for c in faces)),
    )


def maps_isomorphic(a: CombinatorialMap, b: CombinatorialMap) -> bool:
    """Dart-bijection equivalence of maps, allowing reflection.

    Anchors dart 0 of ``a`` on every dart of ``b`` (for sigma_b and its
    inverse) and propagates through alpha/sigma; O(darts^2) overall.
    """
    n = a.dart_count
    if n != b.dart_count:
        return False
    sigma_b_inv = [0] * n
    for d in range(n):
        sigma_b_inv[b.sigma[d]] = d

    for sigma_b in (b.sigma, tuple(sigma_b_inv)):
        for anchor in range(n):
            image = [-1] * n
            image[0] = anchor
            stack = [0]
            ok = True
            while stack and ok:
                x = stack.pop()
                y = image[x]
                for nx, ny in ((a.alpha[x], b.alpha[y]), (a.sigma[x], sigma_b[y])):
                    if image[nx] == -1:
                        image[nx] = ny
                        stack.append(nx)
                    elif image[nx] != ny:
                        ok = False
                        break
            if ok and len(set(image)) == n:
                return True
    return False


# ---------------------------------------------------------------------------
# Surgery on dart maps.  Building the result checks it: an invalid one
# (delete_edge on a bridge) raises MapError.
# ---------------------------------------------------------------------------


def delete_edge(m: CombinatorialMap, d: int) -> CombinatorialMap:
    """Remove the edge of dart d, merging the faces on its two sides."""
    gone = {d, m.alpha[d]}
    keep = [x for x in range(m.dart_count) if x not in gone]
    index = {x: i for i, x in enumerate(keep)}

    def next_kept(x: int) -> int:
        y = m.sigma[x]
        while y in gone:
            y = m.sigma[y]
        return y

    return CombinatorialMap(
        tuple(index[m.alpha[x]] for x in keep), tuple(index[next_kept(x)] for x in keep)
    )


def double_edge(m: CombinatorialMap, d: int) -> CombinatorialMap:
    """Add a parallel copy of the edge of dart d; the two bound a new 2-gon."""
    n = m.dart_count
    a, b = n, n + 1  # a follows d at its vertex, b precedes alpha(d) at the other end
    sigma = list(m.sigma) + [m.sigma[d], m.alpha[d]]
    sigma[d] = a
    sigma[sigma.index(m.alpha[d])] = b
    return CombinatorialMap(m.alpha + (b, a), tuple(sigma))


def add_loop(m: CombinatorialMap, d: int) -> CombinatorialMap:
    """Add a loop in the corner after dart d; it bounds a new 1-gon."""
    n = m.dart_count
    sigma = list(m.sigma) + [n + 1, m.sigma[d]]
    sigma[d] = n
    return CombinatorialMap(m.alpha + (n + 1, n), tuple(sigma))


def face_cycles(m: CombinatorialMap) -> list[list[int]]:
    """Vertex sequence of every face of a simple map."""
    vertex_of = _vertex_of(m)
    return [[vertex_of[d] for d in face] for face in face_orbits(m)]


def glue_along_edge(
    faces1: list[list[int]], faces2: list[list[int]], rng: random.Random
) -> CombinatorialMap:
    """Glue two polyhedra along an edge: its two ends are a 2-vertex cut.

    One face of each loses the shared edge and the two merge into one face.
    """
    f1 = rng.randrange(len(faces1))
    k1 = rng.randrange(len(faces1[f1]))
    u, w = faces1[f1][k1], faces1[f1][(k1 + 1) % len(faces1[f1])]
    f2 = rng.randrange(len(faces2))
    k2 = rng.randrange(len(faces2[f2]))
    u2, w2 = faces2[f2][k2], faces2[f2][(k2 + 1) % len(faces2[f2])]
    offset = 1 + max(v for face in faces1 for v in face)
    relabel = {u2: w, w2: u}  # the second face runs the edge the other way
    for face in faces2:
        for v in face:
            relabel.setdefault(v, offset + v)
    faces2 = [[relabel[v] for v in face] for face in faces2]

    def path_from(cycle: list[int], start: int) -> list[int]:
        k = cycle.index(start)
        return cycle[k:] + cycle[:k]

    # faces1[f1] runs u -> w; the merged face is w ... u, then u ... w in the other
    first = path_from(faces1[f1], w)
    second = path_from(faces2[f2], u)
    merged = first + second[1:-1]
    rest = [f for k, f in enumerate(faces1) if k != f1] + [
        f for k, f in enumerate(faces2) if k != f2
    ]
    return map_from_face_cycles(rest + [merged])


# ---------------------------------------------------------------------------
# The differential corpus
# ---------------------------------------------------------------------------


def family_members(top: int = 9) -> list[CombinatorialMap]:
    """The family polyhedra up to n = ``top``."""
    members = [tetrahedron(), cube(), octahedron()]
    for build in (pyramid, bipyramid, prism, antiprism):
        members += [build(n) for n in range(3, top + 1)]
    for build in (two_apex_pyramid, twisted_antiprism):
        members += [build(n) for n in range(4, top + 1)]
    return members


def polyhedra() -> list[CombinatorialMap]:
    """Family members up to n = 9, their duals and their medials."""
    members = family_members()
    return members + [dual(m) for m in members] + [medial(m) for m in members]


def two_bridge_maps(rng: random.Random, count: int) -> list[CombinatorialMap]:
    """Diagram maps of random two-bridge links (4-regular, with parallel edges)."""
    out = []
    while len(out) < count:
        t = rng.randint(2, 7)
        digits = [rng.randint(1, 4) for _ in range(t - 1)] + [rng.randint(2, 4)]
        # a leading 1 would make p/q the mirror of a fraction with t - 1 twists
        digits[0] = max(digits[0], 2)
        value = continued_fraction_value(digits)
        m = two_bridge_diagram(value.numerator, value.denominator).map
        if validate_map(m).V >= 4:
            out.append(m)
    return out


def _deleted_if_valid(m: CombinatorialMap, d: int) -> CombinatorialMap | None:
    """``delete_edge(m, d)`` if that is a valid map with V >= 4, else None."""
    try:
        out = delete_edge(m, d)
    except MapError:
        return None
    return out if out.census.V >= 4 else None


def three_connectivity_corpus() -> dict[str, list[CombinatorialMap]]:
    """Valid maps with V >= 4, grouped by how they were made."""
    rng = random.Random(2001)
    base = polyhedra()
    small = [m for m in base if validate_map(m).V <= 12]
    corpus = {"polyhedra": base}

    corpus["glued along an edge"] = [
        glue_along_edge(face_cycles(rng.choice(small)), face_cycles(rng.choice(small)), rng)
        for _ in range(150)
    ]

    merged = []
    for m in base:
        for _ in range(2):
            out = _deleted_if_valid(m, rng.randrange(m.dart_count))
            if out is not None:
                merged.append(out)
    corpus["faces merged across an edge"] = merged

    deleted = []
    for m in base:
        out = m
        for _ in range(rng.randint(2, 6)):
            trial = _deleted_if_valid(out, rng.randrange(out.dart_count))
            if trial is not None:
                out = trial
        if out is not m:
            deleted.append(out)
    corpus["random edge deletions"] = deleted

    diagrams = two_bridge_maps(rng, 120)
    corpus["two-bridge diagrams"] = diagrams
    corpus["two-bridge duals"] = [dual(m) for m in diagrams]

    multi = []
    for m in base + corpus["glued along an edge"][:40]:
        out = m
        for _ in range(rng.randint(1, 3)):
            surgery = rng.choice((double_edge, add_loop))
            out = surgery(out, rng.randrange(out.dart_count))
        multi.append(out)
    corpus["loops and parallel edges added"] = multi
    return corpus
