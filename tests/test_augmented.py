import json
import random
from math import gcd

import pytest
from augment_oracle import oracle_augment, split_diagram
from map_corpus import (
    continued_fraction_value,
    family_members,
    maps_isomorphic,
    oracle_medial_perms,
)

from volbounds import cli
from volbounds.augmented import AugmentError, augment, white_census_by_corner_count
from volbounds.links import link_report
from volbounds.maps import (
    CombinatorialMap,
    _medial_perms,
    dual,
    face_orbits,
    is_three_connected,
    map_from_face_cycles,
    medial,
    octahedron,
    prism,
    validate_map,
    vertex_orbits,
)
from volbounds.polyhedra import rectification_bounds
from volbounds.twists import (
    TwistReducedDiagram,
    two_bridge_diagram,
    two_bridge_white_census,
)


def random_two_bridge(rng, t):
    digits = [rng.randint(1, 6) for _ in range(t)]
    # the Conway normal form: a leading 1 would read as the mirror, with t - 1 twists
    digits[0] = max(digits[0], 2)
    if digits[-1] < 2:
        digits[-1] = 2
    value = continued_fraction_value(digits)
    return two_bridge_diagram(value.numerator, value.denominator)


class TestTwoTwists:
    def test_is_octahedron(self):
        p = augment(two_bridge_diagram(5, 2))
        census = validate_map(p.map)
        assert (census.V, census.E, census.F) == (6, 12, 8)
        assert maps_isomorphic(p.map, octahedron())

    def test_white_census(self):
        p = augment(two_bridge_diagram(5, 2))
        assert p.white_census == {3: 4}


class TestThreeTwists:
    def test_counts(self):
        p = augment(two_bridge_diagram(55, 17))
        census = validate_map(p.map)
        assert (census.V, census.E, census.F) == (9, 18, 11)
        assert len(p.dark_faces) == 6
        assert sum(n * f for n, f in p.white_census.items()) == 18

    def test_white_census(self):
        # five white faces; the printed census with f_3=3, f_4=2 sums to 17
        # and violates the handshake -- face tracing gives {3:2, 4:3}
        p = augment(two_bridge_diagram(55, 17))
        assert p.white_census == {3: 2, 4: 3}

    def test_matches_corner_oracle(self):
        d = two_bridge_diagram(55, 17)
        assert white_census_by_corner_count(d) == augment(d).white_census


class TestTwoBridgeWhiteCensus:
    """The closed form {3: 2, 4: t - 2, t + 1: 2} against P's census."""

    def test_small_t_merges_sizes(self):
        assert two_bridge_white_census(2) == {3: 4}
        assert two_bridge_white_census(3) == {3: 2, 4: 3}
        assert two_bridge_white_census(4) == {3: 2, 4: 2, 5: 2}

    def test_refuses_a_single_twist(self):
        for t in (1, 0, -3):
            with pytest.raises(ValueError, match="need t >= 2"):
                two_bridge_white_census(t)

    def test_every_coprime_fraction_up_to_200(self):
        below = above = 0
        for p in range(3, 201):
            for q in range(1, p):
                if gcd(p, q) != 1 or q in (1, p - 1):  # torus links are refused
                    continue
                d = two_bridge_diagram(p, q)
                assert two_bridge_white_census(d.t) == augment(d).white_census, (p, q)
                below += 2 * q < p
                above += 2 * q > p
        assert below > 5000 and above > 5000

    @pytest.mark.parametrize("t", [100, 1000])
    def test_chain_of_twos(self, t):
        value = continued_fraction_value([2] * t)
        d = two_bridge_diagram(value.numerator, value.denominator)
        assert d.t == t
        assert two_bridge_white_census(t) == augment(d).white_census


def join(t):
    """K2 + P_t: the edge {N, S} joined to every vertex of the path 0, ..., t-1."""
    north, south = t, t + 1
    faces = [[north, i, i + 1] for i in range(t - 1)] + [[south, i + 1, i] for i in range(t - 1)]
    return map_from_face_cycles(faces + [[0, south, north], [south, t - 1, north]])


class TestTwoBridgeIsJoinRectification:
    """The two-bridge P is the rectification of K2 + P_t, t the twist count.

    K2 + P_t is the dual of the two-bridge diagram split at its axis corners,
    and a map and its dual have the same medial.  P's white faces are the
    join's vertices, so the closed-form white census is its degree census.
    """

    def test_two_bridge_below_60(self):
        checked = 0
        for p in range(3, 60):
            for q in range(2, p // 2 + 1):
                if gcd(p, q) == 1:
                    d = two_bridge_diagram(p, q)
                    assert maps_isomorphic(augment(d).map, medial(join(d.t))), (p, q)
                    checked += 1
        assert checked == 485

    def test_white_census_is_the_degree_census(self):
        for t in range(2, 201):
            assert two_bridge_white_census(t) == join(t).census.degree_counts, t


class TestInvariants:
    @pytest.mark.parametrize("t", range(2, 11))
    def test_random_inputs(self, t):
        rng = random.Random(1000 + t)
        for _ in range(10):
            d = random_two_bridge(rng, t)
            p = augment(d)
            census = validate_map(p.map)
            assert (census.V, census.E, census.F) == (3 * t, 6 * t, 3 * t + 2)
            assert census.is_four_regular()
            assert len(p.dark_faces) == 2 * t
            assert len(p.red_vertices) == t
            assert census.V - len(p.red_vertices) == 2 * t
            assert sum(n * f for n, f in p.white_census.items()) == 6 * t
            assert sum(p.white_census.values()) == t + 2
            assert p.white_census == white_census_by_corner_count(d)
            # chessboard triangle identity with dark and white triangles together
            rhs = 8 + sum((k - 4) * c for k, c in census.face_counts.items() if k >= 5)
            assert census.p3 == rhs

    def test_dark_faces_are_triangles_with_one_red(self):
        p = augment(two_bridge_diagram(89, 34))
        faces = face_orbits(p.map)
        vertex_of = {}
        for vi, orbit in enumerate(vertex_orbits(p.map)):
            for dart in orbit:
                vertex_of[dart] = vi
        for fi in p.dark_faces:
            assert len(faces[fi]) == 3
            reds = {vertex_of[d] for d in faces[fi]} & p.red_vertices
            assert len(reds) == 1

    def test_red_vertices_on_two_dark_triangles(self):
        p = augment(two_bridge_diagram(55, 17))
        faces = face_orbits(p.map)
        vertex_of = {}
        for vi, orbit in enumerate(vertex_orbits(p.map)):
            for dart in orbit:
                vertex_of[dart] = vi
        for red in p.red_vertices:
            incident = sum(
                1 for fi in p.dark_faces if any(vertex_of[d] == red for d in faces[fi])
            )
            assert incident == 2

    def test_spoke_degree_split(self):
        # every black vertex: two spokes to red vertices and two base edges;
        # every red vertex: spokes to four distinct black vertices
        p = augment(two_bridge_diagram(12, 5))
        orbits = vertex_orbits(p.map)
        vertex_of = {dart: vi for vi, orbit in enumerate(orbits) for dart in orbit}
        for vi, orbit in enumerate(orbits):
            ends = [vertex_of[p.map.alpha[dart]] for dart in orbit]
            if vi in p.red_vertices:
                assert len(set(ends)) == 4 and not set(ends) & p.red_vertices
            else:
                assert sum(end in p.red_vertices for end in ends) == 2


class TestBadAxis:
    def test_inconsistent_marking_rejected(self):
        d = two_bridge_diagram(55, 17)
        broken = TwistReducedDiagram(map=d.map, axis=(0, 1, 1), lengths=d.lengths)
        with pytest.raises(AugmentError):
            augment(broken)


class TestSingleTwist:
    def test_figure_eight_curve_refused(self):
        # one vertex with two loops: a diagram, but only one twist
        d = TwistReducedDiagram(CombinatorialMap((1, 0, 3, 2), (1, 2, 3, 0)), (0,), (3,))
        with pytest.raises(AugmentError, match="^augmentation needs at least two twists$"):
            augment(d)
        with pytest.raises(AugmentError, match="^augmentation needs at least two twists$"):
            oracle_augment(d)


class TestSerialization:
    def test_dict_shape(self, tmp_path):
        assert cli.run(["link", "augment", "--fraction", "55/17", "--out", str(tmp_path / "p.json")]) == 0
        data = json.loads((tmp_path / "p.json").read_text())
        assert set(data) == {"darts", "alpha", "sigma", "red", "dark_faces", "white_census"}
        assert data["white_census"] == {"3": 2, "4": 3}
        assert len(data["red"]) == 3
        assert len(data["dark_faces"]) == 6


def _two_bridge_diagrams(p_max):
    """b(p/q) for every coprime p/q with p <= p_max, both sides of p/2, less
    the torus links, which are refused."""
    for p in range(3, p_max + 1):
        for q in range(1, p):
            if gcd(p, q) == 1 and q not in (1, p - 1):
                yield two_bridge_diagram(p, q)


def _two_bridge_with_random_axes():
    """The two-bridge diagrams with p < 60, each with a seeded random marking."""
    rng = random.Random(2024)
    for d in _two_bridge_diagrams(59):
        axis = tuple(rng.randint(0, 1) for _ in range(d.t))
        yield TwistReducedDiagram(d.map, axis, d.lengths)


def _medials_with_random_axes():
    """Seven seeded random markings of the medial of each family member to
    n = 8 and of its dual: 518 diagrams."""
    rng = random.Random(2023)
    members = family_members(8)
    for m in members + [dual(m) for m in members]:
        med = medial(m)
        for _ in range(7):
            axis = tuple(rng.randint(0, 1) for _ in range(med.census.V))
            yield TwistReducedDiagram(med, axis, (1,) * med.census.V)


def _former_to_medial(d):
    """The bijection from the former construction's darts onto augment's.

    The former P has darts 3x, 3x+1, 3x+2 per diagram dart x; augment's P,
    the medial of the split, has darts 2e, 2e+1 per split dart e.  Axis
    corner (x, y) of vertex v, with sigma(x) = y, is the k-th (k = 0, 1) and
    has the new split dart r = n + 2v + k.
    """
    n = d.map.dart_count
    to = [0] * (3 * n)
    r = n
    for orbit, axis in zip(vertex_orbits(d.map), d.axis):
        e = orbit[axis:] + orbit[:axis]
        for x, y in ((e[0], e[1]), (e[2], e[3])):
            to[3 * x], to[3 * x + 1], to[3 * x + 2] = 2 * r + 1, 2 * x, 2 * r
            to[3 * y], to[3 * y + 1], to[3 * y + 2] = 2 * y, 2 * x + 1, 2 * y + 1
            r += 1
    return to


def _outcome(build, d, rename=None):
    """The parts of an augmentation, or the error it raised.  P's red
    vertices and dark faces are given as sets of darts, and with ``rename``
    each dart x of P becomes ``rename(d)[x]`` first."""
    try:
        p = build(d)
    except AugmentError as err:
        return str(err)
    poly, to = p.map, range(p.map.dart_count)
    if rename is not None:
        to = rename(d)
        alpha, sigma = [0] * poly.dart_count, [0] * poly.dart_count
        for x, (a, s) in enumerate(zip(poly.alpha, poly.sigma)):
            alpha[to[x]], sigma[to[x]] = to[a], to[s]
        poly = CombinatorialMap(tuple(alpha), tuple(sigma))
    vertices, faces = vertex_orbits(p.map), face_orbits(p.map)
    red = {frozenset(to[x] for x in vertices[i]) for i in p.red_vertices}
    dark = {frozenset(to[x] for x in faces[i]) for i in p.dark_faces}
    return poly, red, dark, p.white_census


def _former_outcome(d):
    return _outcome(oracle_augment, d, _former_to_medial)


class TestMatchesFormerConstruction:
    """augment agrees with the former dart-by-dart construction, dart for
    dart under :func:`_former_to_medial`."""

    def test_two_bridge_below_200(self):
        checked = 0
        for p in range(3, 200):
            for q in range(1, p):  # both sides of p/2
                if gcd(p, q) != 1 or q in (1, p - 1):  # torus links are refused
                    continue
                d = two_bridge_diagram(p, q)
                assert _outcome(augment, d) == _former_outcome(d), (p, q)
                checked += 1
        assert checked > 10000

    @pytest.mark.parametrize("t", [100, 300, 1000])
    def test_large_two_bridge(self, t):
        digits = [random.Random(t).randint(1, 5) for _ in range(t - 1)] + [2]
        value = continued_fraction_value(digits)
        d = two_bridge_diagram(value.numerator, value.denominator)
        assert d.t == t
        assert _outcome(augment, d) == _former_outcome(d)

    def test_medials_with_random_axes(self):
        diagrams = list(_medials_with_random_axes())
        assert len(diagrams) >= 500
        for d in diagrams:
            assert _outcome(augment, d) == _former_outcome(d)

    def test_two_bridge_with_random_axes(self):
        outcomes = [
            (_outcome(augment, d), _former_outcome(d))
            for d in _two_bridge_with_random_axes()
        ]
        assert all(mine == oracle for mine, oracle in outcomes)
        errors = sum(isinstance(mine, str) for mine, _ in outcomes)
        assert 0 < errors < len(outcomes)  # both accepted and rejected markings


class TestMedialOfSplitDiagram:
    """P is the medial of the diagram split at its axis corners."""

    @staticmethod
    def accepted(d):
        """Check the identity on d; return whether augment accepted d."""
        split = split_diagram(d)
        assert split.census.degree_counts == {3: 2 * d.t}
        try:
            p = augment(d)
        except AugmentError:
            # the bigon refusal: the split map's medial has a face of size < 3
            assert split.census.min_face_size < 3
            assert medial(split).census.min_face_size < 3
            return False
        assert split.census.min_face_size >= 3
        assert p.map == medial(split)
        assert p.white_census == split.census.face_counts
        assert p.white_census == white_census_by_corner_count(d)
        return True

    def test_three_twists_split_into_the_triangular_prism(self):
        split = split_diagram(two_bridge_diagram(55, 17))
        assert maps_isomorphic(split, prism(3))
        assert self.accepted(two_bridge_diagram(55, 17))

    def test_two_bridge_up_to_60(self):
        checked = 0
        for d in _two_bridge_diagrams(60):
            assert self.accepted(d)
            assert is_three_connected(split_diagram(d))
            checked += 1
        assert checked > 900

    def test_two_bridge_with_random_axes(self):
        accepted = [self.accepted(d) for d in _two_bridge_with_random_axes()]
        assert 0 < sum(accepted) < len(accepted)  # both accepted and refused markings

    def test_medials_with_random_axes(self):
        assert all(self.accepted(d) for d in _medials_with_random_axes())


class TestLinkRowsAreSplitPolyhedronRows:
    """The augmented-link rows are polyhedron rows on the split diagram,
    doubled: the fully augmented link has volume 2 vol(P), and P is the
    rectification of the split.  The exact forms differ (L(pi/3) terms
    against v_tet), so the values are compared."""

    @staticmethod
    def agree(d):
        """Check both identities on d if augment accepts it; return whether
        it did."""
        try:
            census = augment(d).white_census
        except AugmentError:
            return False
        link = {r.name: r.value for r in link_report(d.decomposition(), white_census=census)}
        poly = {r.name: r.value for r in rectification_bounds(split_diagram(d))}
        assert abs(link["white-face"] - 2 * poly["medial-face-census"]) < 1e-9
        if d.t > 8:
            # 3t > 24 medial vertices select the 13/4 shift, and P has 2t + delta
            # triangles: v_tet (10t - 13 - delta)
            assert abs(link["large-twist-refined"] - 2 * poly["medial-triangle-count"]) < 1e-9
        else:
            assert link["large-twist-refined"] is None
        return True

    def test_two_bridge_below_120(self):
        diagrams = [
            two_bridge_diagram(p, q)
            for p in range(3, 120)
            for q in range(2, p // 2 + 1)
            if gcd(p, q) == 1
        ]
        assert len(diagrams) == 2059
        assert all([self.agree(d) for d in diagrams])

    def test_two_bridge_with_random_axes(self):
        accepted = [self.agree(d) for d in _two_bridge_with_random_axes()]
        assert (len(accepted), sum(accepted)) == (970, 483)

    def test_medials_with_random_axes(self):
        diagrams = list(_medials_with_random_axes())
        assert (len(diagrams), sum(d.t > 8 for d in diagrams)) == (518, 476)
        assert all([self.agree(d) for d in diagrams])

    def test_chains_of_twos_beyond_eight_twists(self):
        # no two-bridge diagram with p < 120 has t > 8
        for t in range(9, 41):
            value = continued_fraction_value([2] * t)
            assert self.agree(two_bridge_diagram(value.numerator, value.denominator))


def _large_two_bridge(t):
    digits = [random.Random(t).randint(1, 5) for _ in range(t - 1)] + [2]
    digits[0] = max(digits[0], 2)
    value = continued_fraction_value(digits)
    d = two_bridge_diagram(value.numerator, value.denominator)
    assert d.t == t
    return d


class TestSplitMedialGathers:
    """The medial of the split, gathered from one list of darts, has the
    permutations of the former comprehensions."""

    @staticmethod
    def matches(d):
        split = split_diagram(d)
        return _medial_perms(split.alpha, split.sigma) == oracle_medial_perms(
            split.alpha, split.sigma
        )

    def test_two_bridge_below_200(self):
        assert all(self.matches(d) for d in _two_bridge_diagrams(199))

    def test_two_bridge_at_1000_twists(self):
        assert self.matches(_large_two_bridge(1000))

    def test_random_axes(self):
        assert all(self.matches(d) for d in _two_bridge_with_random_axes())
        assert all(self.matches(d) for d in _medials_with_random_axes())

    def test_p_holds_one_int_object_per_dart(self):
        p = augment(_large_two_bridge(1000)).map
        assert len({id(x) for x in p.alpha + p.sigma}) <= p.dart_count
