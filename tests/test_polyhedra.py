import random
from fractions import Fraction

import pytest
from map_corpus import (
    brute_force_three_connected,
    delete_edge,
    double_edge,
    family_members,
    simple,
    three_connectivity_corpus,
)

from volbounds.lobachevsky import (
    V_OCT,
    V_TET,
    VolumeExpr,
    antiprism_volume,
    twisted_antiprism_volume,
)
from volbounds.maps import (
    MapError,
    SkeletonCensus,
    cube,
    medial_census,
    prism,
    pyramid,
    tetrahedron,
    two_apex_pyramid,
)
from volbounds.polyhedra import (
    atkinson_mixed_expr,
    face_census_expr,
    face_census_log_expr,
    irp_bounds_expr,
    irp_triangle_expr,
    prism_atkinson_expr,
    rectification_bounds,
    triangle_trivalent_expr,
)

OCT_CENSUS = SkeletonCensus(V=6, E=12, F=8, degree_counts={4: 6}, face_counts={3: 8})
Q14_CENSUS = SkeletonCensus(V=12, E=24, F=14, degree_counts={4: 12}, face_counts={3: 8, 4: 6})


class TestAtkinsonMixed:
    def test_tetrahedron_counts(self):
        # frozen from the quadrature oracle
        assert atkinson_mixed_expr(4, 0).value == pytest.approx(12.9656869658084, abs=1e-9)

    def test_octahedron_counts(self):
        assert atkinson_mixed_expr(0, 6).value == pytest.approx(16.7717179898446, abs=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            atkinson_mixed_expr(-1, 4)

    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValueError, match="at least 4 vertices"):
            atkinson_mixed_expr(1, 2)


class TestIrpBounds:
    def test_octahedron_equalities(self):
        lower, upper = (b.value for b in irp_bounds_expr(6))
        assert lower == pytest.approx(V_OCT, abs=1e-12)
        assert upper == pytest.approx(V_OCT, abs=1e-12)

    def test_square_antiprism_not_cut_off(self):
        # the only ideal right-angled polyhedron with 8 vertices is the
        # square antiprism; the upper bound must not fall below its volume
        _, upper = (b.value for b in irp_bounds_expr(8))
        assert upper + 1e-12 >= antiprism_volume(4)

    def test_large_v(self):
        _, upper = (b.value for b in irp_bounds_expr(26))
        assert upper == pytest.approx(10 * V_OCT, abs=1e-9)

    def test_odd_vertex_count_allowed(self):
        lower, upper = (b.value for b in irp_bounds_expr(9))
        assert lower < upper

    def test_too_small(self):
        with pytest.raises(ValueError):
            irp_bounds_expr(4)

    def test_lower_never_exceeds_upper(self):
        for v in range(6, 60):
            lower, upper = (b.value for b in irp_bounds_expr(v))
            assert lower <= upper + 1e-12

    def test_monotone_tightening(self):
        # the V>24 cut is at least as strong as the generic one
        for v in (26, 30, 50):
            _, upper = (b.value for b in irp_bounds_expr(v))
            generic = VolumeExpr.v_oct(Fraction(v, 2) - Fraction(5, 2)).value
            assert upper <= generic + 1e-12


class TestEdgeBound:
    """The edge-count bound: irp_bounds_expr's upper half at V = E."""

    def test_tetrahedron(self):
        assert irp_bounds_expr(6)[1] == VolumeExpr.v_oct()

    def test_mid_range(self):
        assert irp_bounds_expr(12)[1].value == pytest.approx(12.8235183184811, abs=1e-9)

    def test_large(self):
        assert irp_bounds_expr(25)[1].value == pytest.approx(9.5 * V_OCT, abs=1e-9)

    def test_small_e_rejected(self):
        with pytest.raises(ValueError):
            irp_bounds_expr(5)

    def test_is_the_medial_vertex_count_bound(self, accepted_skeletons):
        # the medial of a skeleton with E edges has E vertices
        for census, rows in accepted_skeletons:
            assert medial_census(census).V == census.E
            assert rows["edge-bound"].value == irp_bounds_expr(census.E)[1].value

    def test_monotone_tightening(self):
        for e in range(25, 40):
            tight = irp_bounds_expr(e)[1]
            generic = VolumeExpr.v_oct(Fraction(e, 2) - Fraction(5, 2))
            assert tight.value <= generic.value + 1e-12


class TestFaceCensusBounds:
    def test_octahedron(self):
        value = face_census_expr(OCT_CENSUS).value
        assert value == pytest.approx(4 * V_TET, abs=1e-12)
        assert value >= V_OCT

    def test_q14(self):
        value = face_census_expr(Q14_CENSUS).value
        assert value == pytest.approx(4 * V_TET + 3 * V_OCT, abs=1e-12)
        assert value == pytest.approx(15.0513535557652, abs=1e-9)
        assert value >= 12.046092

    def test_log_octahedron(self):
        assert face_census_log_expr(OCT_CENSUS).value == pytest.approx(6.13068321371819, abs=1e-9)

    def test_log_q14(self):
        assert face_census_log_expr(Q14_CENSUS).value == pytest.approx(19.1961997555398, abs=1e-9)

    def test_log_is_the_term_by_term_sum(self):
        # one expression, and one float, whatever order the faces are added in
        rng = random.Random(5)
        for m in family_members(30):
            census = medial_census(m.census)
            faces = list(census.face_counts.items())
            rng.shuffle(faces)
            summed = VolumeExpr.v_tet(-4)
            for n, count in faces:
                summed = summed + VolumeExpr.pilog(n, count)
            built = face_census_log_expr(census)
            assert built == summed
            assert repr(built) == repr(summed) and built.value == summed.value

    def test_rejects_non_four_regular(self):
        bad = SkeletonCensus(V=4, E=6, F=4, degree_counts={3: 4}, face_counts={3: 4})
        with pytest.raises(ValueError):
            face_census_expr(bad)
        with pytest.raises(ValueError):
            face_census_log_expr(bad)


class TestIrpTriangleBound:
    def test_octahedron(self):
        assert irp_triangle_expr(6, 8).value == pytest.approx(4 * V_TET, abs=1e-12)

    def test_large(self):
        assert irp_triangle_expr(26, 8).value == pytest.approx(42.1200766660006, abs=1e-9)

    def test_p3_floor(self):
        with pytest.raises(ValueError):
            irp_triangle_expr(10, 7)

    def test_vertex_floor(self):
        with pytest.raises(ValueError, match="need V >= 6"):
            irp_triangle_expr(5, 8)


class TestTriangleTrivalentBound:
    def test_tetrahedron_value(self):
        assert triangle_trivalent_expr(6, 4, 4).value == pytest.approx(4 * V_TET, abs=1e-12)

    def test_pyramid_closed_form(self):
        for n in range(4, 15):
            assert triangle_trivalent_expr(2 * n, n, n) == VolumeExpr.v_tet(3 * n - 4)

    def test_two_apex_closed_form(self):
        for n in range(5, 15):
            expr = triangle_trivalent_expr(2 * n + 1, n + 1, n - 2)
            assert expr == VolumeExpr.v_tet(Fraction(6 * n - 3, 2))

    def test_prism_all_trivalent_form(self):
        # literal arithmetic of the printed prism bound 5 v_tet n - 4 v_tet;
        # the n-prism has E = 3n and V3 = 2n
        for n in range(4, 15):
            assert triangle_trivalent_expr(3 * n, 2 * n, 0) == VolumeExpr.v_tet(5 * n - 4)

    def test_all_trivalent_is_the_printed_form(self):
        # at V3 = 2E/3 the bound is (5 v_tet/3)(E - (3 p3 + 24)/10)
        for e in range(6, 400, 3):
            for p3 in range(0, 2 * e // 3 + 1):
                printed = VolumeExpr.v_tet(Fraction(5, 3) * (e - Fraction(3 * p3 + 24, 10)))
                assert triangle_trivalent_expr(e, 2 * e // 3, p3) == printed

    def test_triangular_prism(self):
        assert triangle_trivalent_expr(9, 6, 2) == VolumeExpr.v_tet(10)

    def test_inconsistent_counts(self):
        with pytest.raises(ValueError):
            triangle_trivalent_expr(6, 5, 0)
        with pytest.raises(ValueError):
            triangle_trivalent_expr(6, 0, 5)

    def test_impossible_arguments(self):
        with pytest.raises(ValueError, match="at least 6 edges"):
            triangle_trivalent_expr(5, 0, 0)
        with pytest.raises(ValueError, match="must be nonnegative"):
            triangle_trivalent_expr(6, -1, 0)
        with pytest.raises(ValueError, match="must be nonnegative"):
            triangle_trivalent_expr(6, 0, -1)


class TestPrismBounds:
    def test_values(self):
        assert prism_atkinson_expr(4).value == pytest.approx(4 * V_OCT, abs=1e-12)
        assert prism_atkinson_expr(3).value == pytest.approx(2.5 * V_OCT, abs=1e-12)
        with pytest.raises(ValueError):
            prism_atkinson_expr(2)

    def test_crossover_at_eight(self):
        # 5 v_tet n - 4 v_tet beats (3/2) v_oct n - 2 v_oct exactly from n = 8
        for n in range(3, 8):
            trivalent = triangle_trivalent_expr(3 * n, 2 * n, 0).value
            assert trivalent >= prism_atkinson_expr(n).value
        for n in range(8, 40):
            trivalent = triangle_trivalent_expr(3 * n, 2 * n, 0).value
            assert trivalent < prism_atkinson_expr(n).value

    def test_crossover_constant(self):
        crossover = (2 * V_OCT - 4 * V_TET) / (1.5 * V_OCT - 5 * V_TET)
        assert crossover == pytest.approx(7.7607945929179, abs=1e-9)
        assert 7 < crossover < 8


class TestThresholdCharacterization:
    def test_sign_agreement(self):
        # all-trivalent bound beats the E>24 edge bound iff E + r1 p3 > r2
        r1 = 3 * V_TET / (3 * V_OCT - 10 * V_TET)
        r2 = 6 * (3 * V_OCT - 4 * V_TET) / (3 * V_OCT - 10 * V_TET)
        # E runs over multiples of 3, the edge counts with V3 = 2E/3
        for e in range(27, 80, 3):
            for p3 in range(0, 2 * e // 3, 2):
                trivalent = triangle_trivalent_expr(e, 2 * e // 3, p3).value
                edge = irp_bounds_expr(e)[1].value
                assert (trivalent < edge) == (e + r1 * p3 > r2)


class TestRectificationBounds:
    def test_tetrahedron_equalities(self):
        rows = rectification_bounds(tetrahedron())
        upper = min(r.value for r in rows if r.applicable and r.kind == "upper")
        lower = max(r.value for r in rows if r.applicable and r.kind == "lower")
        assert upper == pytest.approx(V_OCT, abs=1e-12)
        assert lower == pytest.approx(V_OCT, abs=1e-12)
        assert any(r.best and r.kind == "upper" for r in rows)

    def test_pyramid4_brackets_antiprism(self):
        rows = rectification_bounds(pyramid(4))
        lower = max(r.value for r in rows if r.applicable and r.kind == "lower")
        upper = min(r.value for r in rows if r.applicable and r.kind == "upper")
        assert lower - 1e-9 <= antiprism_volume(4) <= upper + 1e-9

    def test_cube_brackets_q14(self):
        rows = rectification_bounds(prism(4))
        lower = max(r.value for r in rows if r.applicable and r.kind == "lower")
        upper = min(r.value for r in rows if r.applicable and r.kind == "upper")
        assert lower - 1e-9 <= 12.046092 <= upper + 1e-9

    @pytest.mark.parametrize("n", range(3, 13))
    def test_sandwich_families(self, n):
        cases = [(pyramid(n), antiprism_volume(n))]
        if n >= 4:
            cases.append((two_apex_pyramid(n), twisted_antiprism_volume(n)))
        for skeleton, exact in cases:
            rows = rectification_bounds(skeleton)
            lower = max(r.value for r in rows if r.applicable and r.kind == "lower")
            upper = min(r.value for r in rows if r.applicable and r.kind == "upper")
            assert lower - 1e-9 <= exact <= upper + 1e-9

    def test_atkinson_gated_by_degrees(self):
        rows = rectification_bounds(two_apex_pyramid(6))  # has a 5-valent vertex
        atkinson = [r for r in rows if r.name == "atkinson-mixed"]
        assert atkinson and not atkinson[0].applicable and atkinson[0].value is None

    def test_values_present_iff_applicable(self):
        for skeleton in (cube(), pyramid(5), two_apex_pyramid(7)):
            for row in rectification_bounds(skeleton):
                assert (row.value is not None) == row.applicable

    def test_antiprism_asymptotics(self):
        assert abs(antiprism_volume(1000) / 1000 - V_OCT / 2) < 1e-2

    def test_doubled_edge_refused_as_not_three_connected(self):
        # 3-connected as a simple graph, but a map with a parallel edge is not
        # the map of a 3-connected simple graph
        with pytest.raises(ValueError, match="must be 3-connected") as err:
            rectification_bounds(double_edge(tetrahedron(), 0))
        assert not isinstance(err.value, MapError)

    def test_accepts_exactly_the_polyhedral_corpus_maps(self):
        mismatched = []
        for kind, ms in three_connectivity_corpus().items():
            for i, m in enumerate(ms):
                try:
                    rectification_bounds(m)
                    accepted = True
                except ValueError:
                    accepted = False
                polyhedral = m.census.V >= 4 and simple(m) and brute_force_three_connected(m)
                if accepted != polyhedral:
                    mismatched.append((kind, i))
        assert mismatched == []

    def test_merged_faces_refused_as_not_three_connected(self):
        # merging two faces of a prism leaves two degree-2 vertices; the
        # 3-connectivity check comes before the degree check
        with pytest.raises(ValueError, match="must be 3-connected") as err:
            rectification_bounds(delete_edge(prism(5), 0))
        assert not isinstance(err.value, MapError)


@pytest.fixture(scope="module")
def accepted_skeletons():
    """Every corpus map and family member to n = 60 that rectification_bounds
    accepts: its census and its rows by name."""
    corpus = [m for ms in three_connectivity_corpus().values() for m in ms]
    accepted = []
    for m in corpus + family_members(60):
        try:
            rows = rectification_bounds(m)
        except ValueError:
            continue
        accepted.append((m.census, {r.name: r for r in rows}))
    return accepted


class TestRefinementRelations:
    """What the code implies about the refinement rows, pinned exactly.

    (a) edge-bound is medial-vertex-count, (b) triangle-trivalent is
    medial-triangle-count without its V > 24 tightening, and (c)
    medial-face-census never exceeds triangle-trivalent.
    """

    def test_corpus_size(self, accepted_skeletons):
        assert len(accepted_skeletons) > 600

    def test_edge_bound_is_medial_vertex_count(self, accepted_skeletons):
        # (a) in row form; TestEdgeBound pins edge-bound == irp_bounds_expr(E)[1]
        for _, rows in accepted_skeletons:
            assert rows["edge-bound"].value == rows["medial-vertex-count"].value

    def test_triangle_trivalent_is_untightened_medial_triangle_count(self, accepted_skeletons):
        # (b): the medial has V = E and p3 + V3 triangles
        for census, rows in accepted_skeletons:
            e, v3, p3 = census.E, census.v3, census.p3
            gap = triangle_trivalent_expr(e, v3, p3) - irp_triangle_expr(e, p3 + v3)
            assert gap == (VolumeExpr.v_tet(Fraction(5, 2)) if e > 24 else VolumeExpr())
            assert rows["triangle-trivalent"].value >= rows["medial-triangle-count"].value

    def test_face_term_lemma(self):
        # (c), term lemma: n L(pi/n) <= n v_tet / 2, as max L = L(pi/6) = v_tet / 2
        ties = []
        for n in range(4, 1001):
            face, trivalent = VolumeExpr.lob(n, n).value, VolumeExpr.v_tet(Fraction(n, 2)).value
            assert face <= trivalent + 1e-12, n
            if face > trivalent - 1e-12:
                ties.append(n)
        assert ties == [6]

    def test_face_census_never_exceeds_triangle_trivalent(self, accepted_skeletons):
        # (c), row form; ties exactly when every degree and face size is 3 or 6
        for census, rows in accepted_skeletons:
            face = rows["medial-face-census"].value
            trivalent = rows["triangle-trivalent"].value
            assert face <= trivalent + 1e-12
            sizes = set(census.degree_counts) | set(census.face_counts)
            assert (face > trivalent - 1e-12) == (sizes <= {3, 6})
