import json
import random

import pytest

from volbounds.augmented import (
    AugmentError,
    augment,
    augmented_to_dict,
    white_census_by_corner_count,
)
from volbounds.maps import (
    face_orbits,
    maps_isomorphic,
    octahedron,
    validate_map,
    vertex_orbits,
)
from volbounds.twists import (
    TwistReducedDiagram,
    continued_fraction_value,
    two_bridge_diagram,
)


def random_two_bridge(rng, t):
    digits = [rng.randint(1, 6) for _ in range(t)]
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
            assert len(p.black_vertices) == 2 * t
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
        # every black vertex: two spokes and two base edges
        p = augment(two_bridge_diagram(12, 5))
        for orbit in vertex_orbits(p.map):
            kinds = sorted(d % 3 for d in orbit)
            assert kinds in ([0, 0, 1, 1], [2, 2, 2, 2])


class TestBadAxis:
    def test_inconsistent_marking_rejected(self):
        d = two_bridge_diagram(55, 17)
        broken = TwistReducedDiagram(map=d.map, axis=(0, 1, 1), lengths=d.lengths)
        with pytest.raises(AugmentError):
            augment(broken)


class TestSerialization:
    def test_dict_shape(self):
        p = augment(two_bridge_diagram(55, 17))
        data = json.loads(json.dumps(augmented_to_dict(p)))
        assert set(data) == {"darts", "alpha", "sigma", "red", "dark_faces", "white_census"}
        assert data["white_census"] == {"3": 2, "4": 3}
        assert len(data["red"]) == 3
        assert len(data["dark_faces"]) == 6
