import copy
import importlib.util
import json
import pickle
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from map_corpus import (
    brute_force_three_connected,
    continued_fraction_value,
    delete_edge,
    double_edge,
    dual_from_orbits,
    face_cycles,
    family_members,
    glue_along_edge,
    maps_isomorphic,
    medial_from_orbits,
    oracle_check_map,
    oracle_medial_perms,
    oracle_orbits,
    simple,
    three_connectivity_corpus,
)

import volbounds.maps as maps_module
from volbounds.augmented import augment
from volbounds.links import HypothesisFlags
from volbounds.lobachevsky import VolumeExpr, report
from volbounds.maps import (
    CombinatorialMap,
    MapError,
    antiprism,
    bipyramid,
    cube,
    dual,
    face_orbits,
    is_three_connected,
    map_from_dict,
    map_from_face_cycles,
    map_to_dict,
    medial,
    medial_census,
    octahedron,
    prism,
    pyramid,
    tetrahedron,
    two_apex_pyramid,
    twisted_antiprism,
    validate_map,
    vertex_orbits,
)
from volbounds.polyhedra import rectification_bounds
from volbounds.twists import (
    TwistDecomposition,
    twist_stats,
    two_bridge_diagram,
)

ALL_BUILDERS = [
    ("tetrahedron", tetrahedron()),
    ("cube", cube()),
    ("octahedron", octahedron()),
    *[(f"pyramid({n})", pyramid(n)) for n in range(3, 13)],
    *[(f"bipyramid({n})", bipyramid(n)) for n in range(3, 13)],
    *[(f"prism({n})", prism(n)) for n in range(3, 13)],
    *[(f"antiprism({n})", antiprism(n)) for n in range(3, 13)],
    *[(f"two_apex_pyramid({n})", two_apex_pyramid(n)) for n in range(4, 13)],
    *[(f"twisted_antiprism({n})", twisted_antiprism(n)) for n in range(4, 13)],
]


def relabel(m: CombinatorialMap, seed: int) -> CombinatorialMap:
    rng = random.Random(seed)
    perm = list(range(m.dart_count))
    rng.shuffle(perm)
    alpha = [0] * m.dart_count
    sigma = [0] * m.dart_count
    for d in range(m.dart_count):
        alpha[perm[d]] = perm[m.alpha[d]]
        sigma[perm[d]] = perm[m.sigma[d]]
    return CombinatorialMap(tuple(alpha), tuple(sigma))


class TestValidation:
    def test_tetrahedron_census(self):
        census = validate_map(tetrahedron())
        assert (census.V, census.E, census.F) == (4, 6, 4)
        assert census.degree_counts == {3: 4}
        assert census.face_counts == {3: 4}

    def test_fixed_dart(self):
        with pytest.raises(MapError) as err:
            CombinatorialMap((0, 1), (1, 0))
        assert err.value.violation == "fixed-dart"

    def test_not_involution(self):
        with pytest.raises(MapError) as err:
            CombinatorialMap((1, 2, 0, 4, 5, 3), (1, 2, 0, 4, 5, 3))
        assert err.value.violation == "not-involution"

    def test_disconnected(self):
        # two disjoint triangles (each: 3 vertices of degree 2)
        tri_alpha = [3, 4, 5, 0, 1, 2]
        tri_sigma = [3, 4, 5, 0, 1, 2]
        alpha = tuple(tri_alpha + [d + 6 for d in tri_alpha])
        sigma = tuple([tri_sigma[i] for i in range(6)]) + tuple(d + 6 for d in tri_sigma)
        # make each triangle actually valid on its own darts
        with pytest.raises(MapError) as err:
            CombinatorialMap(alpha, sigma)
        assert err.value.violation == "disconnected"

    def test_genus(self):
        # one vertex, two edges, one face: the torus
        with pytest.raises(MapError) as err:
            CombinatorialMap((1, 0, 3, 2), (2, 3, 1, 0))
        assert err.value.violation == "genus"

    def test_length_mismatch(self):
        with pytest.raises(MapError) as err:
            CombinatorialMap((1, 0), (0,))
        assert err.value.violation == "length-mismatch"

    @pytest.mark.parametrize(
        "alpha, sigma, name",
        [
            ((1.0, 0.0), (0, 1), "alpha"),
            ((1, 0), ("a", 1), "sigma"),
            ((1, 0), (0.0, 1.0), "sigma"),  # floats that pass the sort
            ((1.0, 0.0), ("a", 1), "alpha"),  # alpha's violation comes first
        ],
    )
    def test_non_integer_entries(self, alpha, sigma, name):
        with pytest.raises(MapError) as err:
            CombinatorialMap(alpha, sigma)
        assert err.value.violation == "not-a-permutation"
        assert str(err.value) == f"not-a-permutation: {name} is not a permutation of 0..1"


class TestCheckedOnce:
    """A map is checked when it is built; nothing checks a built map again."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = maps_module._check_map

        def counted(alpha, sigma):
            calls.append(len(alpha))
            return check(alpha, sigma)

        monkeypatch.setattr(maps_module, "_check_map", counted)
        return calls

    def test_built_map_is_not_checked_again(self, checks):
        m = prism(6)
        assert len(checks) == 1
        checks.clear()
        validate_map(m)
        is_three_connected(m)
        rectification_bounds(m)
        maps_isomorphic(m, m)
        assert checks == []

    def test_constructions_check_their_output_once(self, checks):
        m = prism(6)
        diagram = two_bridge_diagram(55, 17)
        for build, darts in (
            (lambda: medial(m), 2 * m.dart_count),
            (lambda: dual(m), m.dart_count),
            (lambda: augment(diagram), 3 * diagram.map.dart_count),
        ):
            checks.clear()
            build()
            assert checks == [darts]

    def test_census_is_not_part_of_the_value(self):
        m = antiprism(5)
        assert dual(dual(m)) == m
        twin = CombinatorialMap(m.alpha, m.sigma)
        for stored in (
            "census", "_vertex_darts", "_vertex_starts", "_vertex_of", "_face_darts", "_face_starts",
        ):
            object.__setattr__(twin, stored, None)
        assert twin == m
        assert hash(m) == hash(twin) == hash((m.alpha, m.sigma))
        assert repr(m) == repr(twin) == f"CombinatorialMap(alpha={m.alpha!r}, sigma={m.sigma!r})"


def _records() -> dict:
    m = prism(6)
    diagram = two_bridge_diagram(55, 17)
    return {
        "map": m,
        "diagram": diagram,
        "decomposition": diagram.decomposition(),
        "twist stats": twist_stats(diagram.decomposition()),
        "flags": HypothesisFlags(reduced=True, not_borromean=True),
        "bound": report(
            [("octahedral", "upper", ("prism",), "test", lambda: VolumeExpr.v_oct(2))], set()
        )[0],
        "census": m.census,
        "augmented polyhedron": augment(diagram),
    }


RECORDS = _records()


class TestRecordsSurviveCopying:
    """Maps and the library's records pickle and copy to equal values."""

    @pytest.mark.parametrize("name", sorted(RECORDS))
    @pytest.mark.parametrize(
        "duplicate",
        [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trip(self, name, duplicate):
        record = RECORDS[name]
        again = duplicate(record)
        assert type(again) is type(record)
        assert again == record
        # a copied map, alone or inside a record, carries the same census and orbits
        m, m_again = (r if name == "map" else getattr(r, "map", None) for r in (record, again))
        if m is not None:
            assert m_again.census == m.census
            assert vertex_orbits(m_again) == vertex_orbits(m)
            assert face_orbits(m_again) == face_orbits(m)

    @pytest.mark.parametrize("field", ["alpha", "sigma", "census", "_face_darts", "other"])
    def test_map_stays_immutable(self, field):
        for m in (prism(6), copy.deepcopy(prism(6)), pickle.loads(pickle.dumps(prism(6)))):
            with pytest.raises(AttributeError):
                setattr(m, field, None)
            with pytest.raises(AttributeError):
                delattr(m, field)

    def test_replace_checks_a_validated_record(self):
        diagram = two_bridge_diagram(55, 17)
        with pytest.raises(ValueError, match="axis entries must be 0 or 1"):
            diagram._replace(axis=(2,) * diagram.t)
        with pytest.raises(ValueError, match="at least one twist"):
            TwistDecomposition((3, 4))._replace(lengths=())
        assert diagram._replace(axis=(0,) * diagram.t).axis == (0, 0, 0)


class TestOrbitsWalkedOnce:
    """A map's orbits are traced by its check; nothing traces them again."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        orbits = maps_module._orbits

        def counted(perm):
            calls.append(len(perm))
            return orbits(perm)

        monkeypatch.setattr(maps_module, "_orbits", counted)
        return calls

    def test_augment_walks_the_orbits_of_p_once(self, walks):
        diagram = two_bridge_diagram(55, 17)
        walks.clear()
        p = augment(diagram)
        assert walks == [p.map.dart_count, p.map.dart_count]  # sigma, then phi

    def test_orbit_accessors_walk_nothing(self, walks):
        m = prism(7)
        walks.clear()
        vertex_orbits(m)
        face_orbits(m)
        assert walks == []

    def test_returned_lists_are_fresh(self):
        m = prism(7)
        for orbits in (vertex_orbits, face_orbits):
            first = orbits(m)
            expected = list(first)
            first.pop()
            first.append((0,))
            assert orbits(m) == expected


def _map_check_outcome(alpha, sigma):
    """The census and orbits the library stores, or its MapError."""
    try:
        m = CombinatorialMap(alpha, sigma)
    except MapError as err:
        return err.violation, str(err)
    return m.census, vertex_orbits(m), face_orbits(m)


def _oracle_outcome(alpha, sigma):
    """The same from the former check and orbit tracer."""
    try:
        census = oracle_check_map(alpha, sigma)
    except MapError as err:
        return err.violation, str(err)
    phi = tuple(sigma[alpha[d]] for d in range(len(alpha)))
    return census, oracle_orbits(sigma), oracle_orbits(phi)


def _perfbench_malformed_dicts():
    """The malformed map objects of the benchmark, for a few seeds."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    vb = type("vb", (), {"maps": maps_module})
    return [
        (label, data)
        for seed in range(5)
        for label, data, _ in workloads.malformed_dicts(vb, random.Random(seed))
    ]


# (alpha, sigma) of maps the check must reject, each named by what breaks
MALFORMED = {
    "fixed dart before a non-involution dart": ((0, 2, 3, 1, 5, 4), tuple(range(6))),
    "non-involution dart before a fixed dart": ((1, 2, 0, 3, 5, 4), tuple(range(6))),
    "odd dart count": ((1, 0, 2), (0, 1, 2)),
    # one-vertex torus (V - E + F = 0) beside a one-edge sphere (2)
    "torus plus sphere": ((2, 3, 0, 1, 5, 4), (1, 2, 3, 0, 4, 5)),
    "empty": ((), ()),
    "length mismatch": ((1, 0), (0,)),
    "alpha not a permutation": ((1, 1), (0, 1)),
    "sigma not a permutation": ((1, 0), (0, 0)),
    # aimed at the fast tests that stand in for the permutation sorts:
    # alpha o alpha = id, and sigma's walk closing each cycle at its start
    "sigma duplicate, walk never returns to its start": ((1, 0, 3, 2), (1, 2, 1, 3)),
    "sigma negative entry aliasing its start": ((1, 0, 3, 2), (1, 2, 3, -4)),
    # -3 aliases dart 1, not yet walked: the cycle (0, -3) would close
    "sigma negative entry aliasing an unwalked dart": ((1, 0, 3, 2), (-3, 0, 3, 2)),
    "sigma negative entry": ((1, 0, 3, 2), (-1, 0, 2, 3)),
    "sigma far negative entry": ((1, 0, 3, 2), (1, 2, 3, -100)),
    "sigma entry equal to n": ((1, 0, 3, 2), (1, 2, 3, 4)),
    "sigma far entry": ((1, 0, 3, 2), (1, 2, 3, 100)),
    "alpha negative entry": ((-3, 0, 3, 2), (0, 1, 2, 3)),
    "alpha entry equal to n": ((4, 0, 3, 2), (0, 1, 2, 3)),
    "bool sigma duplicate": ((True, False), (True, True)),
    "alpha and sigma not permutations": ((1, 1, 3, 2), (0, 0, 1, 2)),
    "alpha non-involution, sigma not a permutation": ((1, 2, 3, 0), (0, 0, 1, 2)),
    "alpha out of range, sigma duplicate": ((1, 0, 3, 7), (1, 2, 1, 3)),
    "odd dart count, valid-looking alpha": ((1, 0, 3, 2, 4), (1, 2, 3, 4, 0)),
    "one dart": ((0,), (0,)),
}
# the rest fail a fast test and are named by the ordered diagnosis
UNSORTED_MALFORMED = {"empty", "length mismatch", "torus plus sphere"}
DIAGNOSED = sorted(MALFORMED.keys() - UNSORTED_MALFORMED)

# valid maps the fast tests must accept: bool entries, and one-dart vertex
# cycles (the single edge; star trees, centre darts 0..k-1, leaves k..2k-1)
VALID_EDGE_CASES = {
    "bool entries": ((True, False), (False, True)),
    "single edge": ((1, 0), (0, 1)),
    **{
        f"star({k})": (
            tuple(range(k, 2 * k)) + tuple(range(k)),
            tuple(range(1, k)) + (0,) + tuple(range(k, 2 * k)),
        )
        for k in range(2, 7)
    },
}


class TestMapCheckOracle:
    """The fast paths of the map check agree with the former check."""

    def test_corpus(self):
        maps = [m for ms in CONNECTIVITY.values() for m in ms]
        assert len(maps) >= 1000
        for m in maps:
            assert _map_check_outcome(m.alpha, m.sigma) == _oracle_outcome(m.alpha, m.sigma)

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed(self, name):
        alpha, sigma = MALFORMED[name]
        outcome = _map_check_outcome(alpha, sigma)
        assert isinstance(outcome[0], str)
        assert outcome == _oracle_outcome(alpha, sigma)

    @pytest.mark.parametrize("name", sorted(VALID_EDGE_CASES))
    def test_valid_edge_cases(self, name):
        alpha, sigma = VALID_EDGE_CASES[name]
        outcome = _map_check_outcome(alpha, sigma)
        assert isinstance(outcome[0], maps_module.SkeletonCensus)
        assert outcome == _oracle_outcome(alpha, sigma)

    def test_torus_plus_sphere_is_disconnected_not_genus(self):
        assert _map_check_outcome(*MALFORMED["torus plus sphere"])[0] == "disconnected"

    def test_perfbench_malformed_dicts(self):
        kinds = set()
        for label, data in _perfbench_malformed_dicts():
            kinds.add(label)
            if "alpha" not in data or "sigma" not in data:
                continue  # rejected as a bad file object before any map check
            alpha, sigma = tuple(data["alpha"]), tuple(data["sigma"])
            assert _map_check_outcome(alpha, sigma) == _oracle_outcome(alpha, sigma), label
        assert {"fixed-dart", "not-involution", "disconnected", "genus"} <= kinds


def _cycle(order) -> tuple[int, ...]:
    """The permutation with one cycle, visiting ``order``."""
    perm = [0] * len(order)
    for d, e in zip(order, order[1:] + order[:1]):
        perm[d] = e
    return tuple(perm)


def _involution(order) -> tuple[int, ...]:
    """The fixed-point-free involution pairing consecutive entries of ``order``."""
    perm = [0] * len(order)
    for d, e in zip(order[0::2], order[1::2]):
        perm[d], perm[e] = e, d
    return tuple(perm)


def _flat_oracle_orbits(perm) -> tuple[list[int], list[int], list[int]]:
    """``oracle_orbits`` in the flat form of ``maps._orbits``."""
    cycles = oracle_orbits(perm)
    starts = [0]
    label = [None] * len(perm)
    for k, cycle in enumerate(cycles):
        starts.append(starts[-1] + len(cycle))
        for d in cycle:
            label[d] = k
    return [d for cycle in cycles for d in cycle], starts, label


# permutations of every cycle type: random ones (fixed points included), one
# long cycle, and the identity
PERMUTATIONS = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.one_of(
        st.permutations(range(n)).map(tuple),
        st.permutations(range(n)).map(_cycle),
        st.just(tuple(range(n))),
    )
)


def _aliased(perm, shifted) -> tuple[int, ...]:
    """``perm`` with the entries at ``shifted`` moved down by n: negative,
    yet indexing with them still reads a permutation."""
    n = len(perm)
    return tuple(e - n if wrap else e for e, wrap in zip(perm, shifted))


def _entries(n: int):
    """Tuples of n ints: arbitrary ones in -n-1..n+1 (negatives, duplicates
    and entries >= n), permutations, permutations (one long cycle among them)
    with negative aliases, and for even n involutions."""
    arbitrary = st.lists(st.integers(min_value=-n - 1, max_value=n + 1), min_size=n, max_size=n)
    permutation = st.permutations(range(n))
    shifted = st.lists(st.booleans(), min_size=n, max_size=n).filter(any)
    kinds = [
        arbitrary.map(tuple),
        permutation.map(tuple),
        st.builds(_aliased, st.one_of(permutation.map(tuple), permutation.map(_cycle)), shifted),
    ]
    if n % 2 == 0:
        kinds.append(permutation.map(_involution))
    return st.one_of(kinds)


def _map_candidates(n: int):
    """Pairs (alpha, sigma) of n-tuples from :func:`_entries`; for even n
    also a valid alpha beside them, so that sigma's walk is what refuses."""
    entries = _entries(n)
    pairs = [st.tuples(entries, entries)]
    if n % 2 == 0:
        pairs.append(st.tuples(st.permutations(range(n)).map(_involution), entries))
    return st.one_of(pairs)


MAP_CANDIDATES = st.integers(min_value=1, max_value=8).flatmap(_map_candidates)


class TestOrbitWalkOracle:
    """The orbit walk against the former tracer, on random input."""

    @settings(max_examples=300)
    @given(PERMUTATIONS)
    def test_orbits_are_the_flat_oracle_orbits(self, perm):
        assert maps_module._orbits(perm) == _flat_oracle_orbits(perm)

    @settings(max_examples=300)
    @given(MAP_CANDIDATES)
    def test_map_check_refuses_as_the_oracle(self, candidate):
        # the same MapError violation and message, or the same census and orbits
        alpha, sigma = candidate
        assert _map_check_outcome(alpha, sigma) == _oracle_outcome(alpha, sigma)


class TestNoPermutationSorts:
    """A valid map is checked without sorting either permutation; only a
    malformed one reaches the ordered diagnosis, which sorts them."""

    @pytest.fixture
    def sorts(self, monkeypatch):
        calls = []

        def counted(seq, **kwargs):
            calls.append(seq)
            return sorted(seq, **kwargs)

        monkeypatch.setattr(maps_module, "sorted", counted, raising=False)
        return calls

    def test_valid_maps_sort_nothing(self, sorts):
        for _, m in ALL_BUILDERS:
            CombinatorialMap(m.alpha, m.sigma)
        for alpha, sigma in VALID_EDGE_CASES.values():
            CombinatorialMap(alpha, sigma)
        augment(two_bridge_diagram(55, 17))
        assert sorts == []

    @pytest.mark.parametrize("name", DIAGNOSED)
    def test_malformed_maps_reach_the_diagnosis(self, sorts, name):
        alpha, sigma = MALFORMED[name]
        with pytest.raises(MapError):
            CombinatorialMap(alpha, sigma)
        assert sorts


class TestBuilders:
    @pytest.mark.parametrize("name,m", ALL_BUILDERS)
    def test_handshakes_and_euler(self, name, m):
        c = validate_map(m)
        assert sum(k * v for k, v in c.degree_counts.items()) == 2 * c.E
        assert sum(k * v for k, v in c.face_counts.items()) == 2 * c.E
        assert c.V - c.E + c.F == 2
        assert min(c.degree_counts) >= 3
        assert c.min_face_size >= 3

    @pytest.mark.parametrize("name,m", ALL_BUILDERS)
    def test_three_connected(self, name, m):
        assert is_three_connected(m)

    def test_pyramid_counts(self):
        c = validate_map(pyramid(4))
        assert (c.V, c.E, c.F) == (5, 8, 5)
        assert c.v3 == 4 and c.p3 == 4

    def test_prism3_counts(self):
        c = validate_map(prism(3))
        assert (c.V, c.E, c.F) == (6, 9, 5)
        assert c.degree_counts == {3: 6} and c.p3 == 2

    def test_two_apex_counts(self):
        c = validate_map(two_apex_pyramid(6))
        assert c.E == 13 and c.v3 == 7 and c.p3 == 4

    def test_twisted_antiprism_counts(self):
        c = validate_map(twisted_antiprism(6))
        assert c.is_four_regular()
        assert c.V == 13 and c.E == 26 and c.F == 15

    def test_minimums_rejected(self):
        for builder, floor in [
            (pyramid, 3),
            (bipyramid, 3),
            (prism, 3),
            (antiprism, 3),
            (two_apex_pyramid, 4),
            (twisted_antiprism, 4),
        ]:
            with pytest.raises(ValueError):
                builder(floor - 1)

    @pytest.mark.parametrize(
        "faces,message",
        [
            ([[0, 1, 0], [0, 1, 2]], "face 0 is not a simple cycle"),
            ([[0, 1, 2], [0, 2, 1], [0, 1, 3]], "edge (0, 1) occurs 3 times"),
            # the hemicube: three squares on the projective plane
            ([[0, 1, 2, 3], [0, 1, 3, 2], [0, 2, 1, 3]], "cannot be oriented consistently"),
            # two triangles glued along their boundary, twice over
            ([[0, 1, 2], [2, 1, 0], [3, 4, 5], [5, 4, 3]], "face complex is disconnected"),
            ([], "at least one face cycle"),
        ],
    )
    def test_face_cycles_refused(self, faces, message):
        with pytest.raises(ValueError) as err:
            map_from_face_cycles(faces)
        assert message in str(err.value)


class TestMedial:
    @pytest.mark.parametrize("name,m", ALL_BUILDERS)
    def test_counts(self, name, m):
        c = validate_map(m)
        mc = validate_map(medial(m))
        assert mc.V == c.E
        assert mc.E == 2 * c.E
        assert mc.F == c.V + c.F
        assert mc.is_four_regular()

    @pytest.mark.parametrize("name,m", ALL_BUILDERS)
    def test_face_size_correspondence(self, name, m):
        c = validate_map(m)
        mc = validate_map(medial(m))
        expected = {}
        for k, v in c.degree_counts.items():
            expected[k] = expected.get(k, 0) + v
        for k, v in c.face_counts.items():
            expected[k] = expected.get(k, 0) + v
        assert mc.face_counts == expected

    @pytest.mark.parametrize(
        "build,low", [(pyramid, 3), (bipyramid, 3), (prism, 3), (antiprism, 3),
                      (two_apex_pyramid, 4), (twisted_antiprism, 4)]
    )
    def test_census_without_building(self, build, low):
        for n in range(low, 31):
            for m in (build(n), dual(build(n))):
                assert medial_census(validate_map(m)) == validate_map(medial(m))

    @pytest.mark.parametrize(
        "m,violation",
        [
            (double_edge(tetrahedron(), 0), "face-size"),
            (delete_edge(prism(5), 0), "degree"),
        ],
    )
    def test_census_refuses_what_medial_refuses(self, m, violation):
        # medial refuses no map, so neither does the census: a 2-gon face and a
        # vertex of degree 2 give the same census either way
        low = {"face-size": m.census.min_face_size, "degree": min(m.census.degree_counts)}
        assert low[violation] < 3
        assert medial_census(validate_map(m)) == validate_map(medial(m))

    def test_census_without_building_on_any_map(self):
        # multigraphs, loops and vertices of degree 1 or 2 among them
        corpus = [m for ms in CONNECTIVITY.values() for m in ms] + SMALL_MAPS
        assert [m for m in corpus if medial_census(m.census) != medial(m).census] == []
        assert any(m.census.min_face_size < 3 for m in corpus)
        assert any(min(m.census.degree_counts) < 3 for m in corpus)

    @pytest.mark.parametrize("name,m", ALL_BUILDERS)
    def test_irp_triangle_identity(self, name, m):
        mc = validate_map(medial(m))
        rhs = 8 + sum((k - 4) * v for k, v in mc.face_counts.items() if k >= 5)
        assert mc.p3 == rhs

    # the octahedron and the antiprisms are built as medials, so medial is
    # compared with the orbit oracle rather than with those builders
    @pytest.mark.parametrize("name,m", ALL_BUILDERS)
    def test_matches_orbit_oracle(self, name, m):
        assert maps_isomorphic(medial(m), medial_from_orbits(m))

    def test_tetrahedron_gives_octahedron(self):
        assert maps_isomorphic(medial(tetrahedron()), medial_from_orbits(tetrahedron()))

    def test_pyramid_gives_antiprism(self):
        assert maps_isomorphic(medial(pyramid(4)), medial_from_orbits(pyramid(4)))

    def test_cube_gives_q14(self):
        mc = validate_map(medial(cube()))
        assert mc.V == 12
        assert mc.face_counts == {3: 8, 4: 6}

    @pytest.mark.parametrize("n", range(4, 9))
    def test_two_apex_gives_twisted_antiprism(self, n):
        m = two_apex_pyramid(n)
        assert maps_isomorphic(medial(m), medial_from_orbits(m))


class TestDual:
    def test_cube_octahedron(self):
        # the cube is built as the octahedron's dual: both sides go to the oracle
        assert maps_isomorphic(dual(cube()), dual_from_orbits(cube()))
        assert maps_isomorphic(cube(), dual_from_orbits(octahedron()))

    @pytest.mark.parametrize("name,m", ALL_BUILDERS)
    def test_matches_orbit_oracle(self, name, m):
        assert maps_isomorphic(dual(m), dual_from_orbits(m))

    def test_tetra_self_dual(self):
        assert maps_isomorphic(dual(tetrahedron()), tetrahedron())

    @pytest.mark.parametrize("name,m", ALL_BUILDERS[:8])
    def test_involution(self, name, m):
        assert dual(dual(m)) == m

    def test_medial_of_dual(self):
        assert maps_isomorphic(medial(cube()), medial(dual(cube())))


class TestIsomorphism:
    def test_self(self):
        assert maps_isomorphic(tetrahedron(), tetrahedron())

    def test_different(self):
        assert not maps_isomorphic(tetrahedron(), cube())
        assert not maps_isomorphic(octahedron(), antiprism(4))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25)
    def test_relabeling_invariance(self, seed):
        m = pyramid(5)
        assert maps_isomorphic(m, relabel(m, seed))

    def test_symmetric(self):
        a, b = medial(pyramid(4)), antiprism(4)
        assert maps_isomorphic(a, b) == maps_isomorphic(b, a)

    @pytest.mark.parametrize("name,m", ALL_BUILDERS)
    def test_reflexive_on_corpus(self, name, m):
        assert maps_isomorphic(m, m)


CONNECTIVITY = three_connectivity_corpus()
# the single edge, the one-vertex loop and the one vertex with two loops
SMALL_MAPS = [
    CombinatorialMap((1, 0), (0, 1)),
    CombinatorialMap((1, 0), (1, 0)),
    CombinatorialMap((1, 0, 3, 2), (1, 2, 3, 0)),
]


class TestThreeConnectivity:
    def test_book_graph_not_three_connected(self):
        # two triangles glued along an edge
        book = map_from_face_cycles([[0, 1, 2], [0, 3, 1], [2, 0, 3, 1]])
        c = validate_map(book)
        assert (c.V, c.E, c.F) == (4, 5, 3)
        assert not is_three_connected(book)

    def test_too_small(self):
        # the triangle has as many 4-cycles as edges: only V < 4 refuses it
        tri = map_from_face_cycles([[0, 1, 2], [2, 1, 0]])
        assert [is_three_connected(m) for m in [tri] + SMALL_MAPS] == [False] * 4

    def test_corpus_is_large_and_rich_in_negatives(self):
        answers = [brute_force_three_connected(m) for ms in CONNECTIVITY.values() for m in ms]
        assert len(answers) >= 1000
        assert answers.count(False) >= 0.3 * len(answers)

    @pytest.mark.parametrize("kind", sorted(CONNECTIVITY))
    def test_agrees_with_brute_force(self, kind):
        disagreements = [
            i
            for i, m in enumerate(CONNECTIVITY[kind])
            if is_three_connected(m) != (simple(m) and brute_force_three_connected(m))
        ]
        assert disagreements == []

    def test_multigraph_on_a_polyhedron_has_a_small_face(self):
        # a polyhedral embedding leaves an extra edge copy or a loop only
        # one face to lie in, so the innermost one bounds a 1- or 2-gon
        multi = [
            m
            for ms in CONNECTIVITY.values()
            for m in ms
            if not simple(m) and brute_force_three_connected(m)
        ]
        assert len(multi) >= 100
        assert [m.census.min_face_size for m in multi if m.census.min_face_size > 2] == []


FAMILY_LADDERS = [
    (pyramid, 3),
    (bipyramid, 3),
    (prism, 3),
    (antiprism, 3),
    (two_apex_pyramid, 4),
    (twisted_antiprism, 4),
]


def poles_on_common_faces(paths: int, length: int) -> CombinatorialMap:
    """Two poles joined by ``paths`` paths of ``length`` edges, with one face
    between consecutive paths: both poles lie on every face.  Three paths of
    two edges make the theta graph K_{2,3}, four make K_{2,4}."""
    inner = iter(range(2, 2 + paths * (length - 1)))
    routes = [[0] + [next(inner) for _ in range(length - 1)] + [1] for _ in range(paths)]
    return map_from_face_cycles(
        [route + routes[(i + 1) % paths][-2:0:-1] for i, route in enumerate(routes)]
    )


def blob_necklace(blobs: int) -> CombinatorialMap:
    """Poles 0 and 1 joined through ``blobs`` copies of K4 minus an edge, so
    that the poles share a 4-gon between each two consecutive blobs; min
    degree and min face size 3, and {0, 1} a 2-vertex cut."""
    xs = [2 + 2 * i for i in range(blobs)]
    ys = [3 + 2 * i for i in range(blobs)]
    faces = []
    for i in range(blobs):
        faces += [[0, xs[i], ys[i]], [xs[i], 1, ys[i]], [0, ys[i], 1, xs[(i + 1) % blobs]]]
    return map_from_face_cycles(faces)


class TestThreeConnectivityAtScale:
    """Sizes the brute-force oracle cannot reach."""

    @pytest.mark.parametrize("build,low", FAMILY_LADDERS, ids=lambda x: getattr(x, "__name__", x))
    def test_families_to_200_with_duals_and_medials(self, build, low):
        for n in range(low, 201):
            m = build(n)
            for member in (m, dual(m), medial(m)):
                assert is_three_connected(member), (build.__name__, n)

    def test_fixed_families_with_duals_and_medials(self):
        for m in (tetrahedron(), cube(), octahedron()):
            for member in (m, dual(m), medial(m)):
                assert is_three_connected(member)

    @pytest.mark.parametrize("paths", [3, 4, 9])
    @pytest.mark.parametrize("length", [2, 50])
    def test_poles_on_three_or_more_common_faces(self, paths, length):
        m = poles_on_common_faces(paths, length)
        assert m.census.F == paths
        assert not is_three_connected(m)

    @pytest.mark.parametrize("blobs", [2, 3, 4, 60])
    def test_blob_necklace(self, blobs):
        m = blob_necklace(blobs)
        assert (m.census.V, m.census.E, m.census.F) == (2 + 2 * blobs, 5 * blobs, 3 * blobs)
        assert min(m.census.degree_counts) >= 3 and m.census.min_face_size >= 3
        assert not is_three_connected(m)

    @pytest.mark.parametrize("seed", range(5))
    def test_prism_glued_to_antiprism(self, seed):
        m = glue_along_edge(face_cycles(prism(60)), face_cycles(antiprism(40)), random.Random(seed))
        assert (m.census.V, m.census.E) == (120 + 80 - 2, 180 + 160 - 1)
        assert not is_three_connected(m)

    def test_small_cases_agree_with_brute_force(self):
        small = [poles_on_common_faces(p, k) for p in (3, 4) for k in (2, 3)]
        small += [blob_necklace(b) for b in (2, 3, 4)]
        assert not any(brute_force_three_connected(m) for m in small)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        m = two_apex_pyramid(5)
        data = map_to_dict(m)
        assert set(data) == {"darts", "alpha", "sigma"}
        again = map_from_dict(json.loads(json.dumps(data)))
        assert again == m

    def test_bad_lengths(self):
        with pytest.raises(MapError) as err:
            map_from_dict({"darts": 4, "alpha": [1, 0], "sigma": [1, 0]})
        assert err.value.violation == "length-mismatch"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha", [1.9, 0]),
            ("alpha", [True, False]),
            ("sigma", ["0", "1"]),
            ("sigma", [0.0, 1]),
            ("darts", 2.0),
            ("darts", True),
        ],
    )
    def test_non_integer_entries_are_a_format_error(self, field, value):
        data = {"darts": 2, "alpha": [1, 0], "sigma": [0, 1]}
        data[field] = value
        with pytest.raises(MapError) as err:
            map_from_dict(data)
        assert err.value.violation == "format"

    def test_error_carries_violation_name(self):
        data = map_to_dict(tetrahedron())
        data["alpha"][0] = 0  # break the involution
        with pytest.raises(MapError) as err:
            map_from_dict(data)
        assert err.value.violation in ("fixed-dart", "not-a-permutation")


def test_vertex_and_face_orbits_cover_darts():
    m = antiprism(5)
    for orbits in (vertex_orbits(m), face_orbits(m)):
        darts = [d for orbit in orbits for d in orbit]
        assert sorted(darts) == list(range(m.dart_count))


def _two_bridge_maps():
    rng = random.Random(7)
    out = [two_bridge_diagram(5, 2).map, two_bridge_diagram(55, 17).map]
    for t in range(2, 12):
        digits = [rng.randint(1, 6) for _ in range(t - 1)] + [rng.randint(2, 6)]
        value = continued_fraction_value(digits)
        out.append(two_bridge_diagram(value.numerator, value.denominator).map)
    return out


ORBIT_CORPORA = {
    "families": [m for _, m in ALL_BUILDERS],
    "medials": [medial(m) for _, m in ALL_BUILDERS],
    "duals": [dual(m) for _, m in ALL_BUILDERS],
    "two-bridge diagrams": _two_bridge_maps(),
}


@pytest.mark.parametrize("corpus", sorted(ORBIT_CORPORA))
def test_orbits_start_at_their_minimal_dart_and_follow_the_permutation(corpus):
    # augment reads the axis corners of each diagram vertex off its sigma-cycle
    for m in ORBIT_CORPORA[corpus]:
        phi = [m.sigma[m.alpha[d]] for d in range(m.dart_count)]
        for orbits, perm in ((vertex_orbits(m), m.sigma), (face_orbits(m), phi)):
            assert [o[0] for o in orbits] == sorted(o[0] for o in orbits)
            for orbit in orbits:
                assert orbit[0] == min(orbit)
                assert all(perm[d] == orbit[(i + 1) % len(orbit)] for i, d in enumerate(orbit))


def _large_two_bridge_maps():
    """The diagram and P of a two-bridge link with t = 100 and t = 1000."""
    out = []
    for t in (100, 1000):
        rng = random.Random(t)
        digits = [rng.randint(2, 5)] + [rng.randint(1, 5) for _ in range(t - 2)] + [2]
        value = continued_fraction_value(digits)
        diagram = two_bridge_diagram(value.numerator, value.denominator)
        assert diagram.t == t
        out += [diagram.map, augment(diagram).map]
    return out


FLAT_CORPORA = {
    "map corpus": [m for ms in CONNECTIVITY.values() for m in ms],
    "families up to n = 60": family_members(60),
    "two-bridge diagram and P at t = 100, 1000": _large_two_bridge_maps(),
}


class TestFlatOrbits:
    """A map stores its orbits flat, as its check walked them; the orbit
    accessors slice them, and the census and orbits are those of the former
    check."""

    @pytest.mark.parametrize("corpus", sorted(FLAT_CORPORA))
    def test_orbits_are_the_oracle_orbits(self, corpus):
        for m in FLAT_CORPORA[corpus]:
            phi = tuple(m.sigma[m.alpha[d]] for d in range(m.dart_count))
            assert vertex_orbits(m) == oracle_orbits(m.sigma)
            assert face_orbits(m) == oracle_orbits(phi)

    @pytest.mark.parametrize("corpus", sorted(FLAT_CORPORA))
    def test_vertex_label_is_the_index_of_its_orbit(self, corpus):
        for m in FLAT_CORPORA[corpus]:
            label = [None] * m.dart_count
            for i, orbit in enumerate(oracle_orbits(m.sigma)):
                for d in orbit:
                    label[d] = i
            assert list(m._vertex_of) == label

    @pytest.mark.parametrize("corpus", sorted(FLAT_CORPORA))
    def test_census_is_unchanged(self, corpus):
        for m in FLAT_CORPORA[corpus]:
            assert m.census == oracle_check_map(m.alpha, m.sigma)

    def test_orbits_keep_no_int_object_of_their_own(self):
        # each cycle's start is stored as the int its last step read from
        # sigma (or from phi, gathered from sigma), not the one the scan for
        # the start made, so the flat orbits add no int object per cycle
        for m in FLAT_CORPORA["two-bridge diagram and P at t = 100, 1000"]:
            assert {id(d) for d in m._vertex_darts + m._face_darts} <= {id(d) for d in m.sigma}


class TestMedialGathers:
    """``_medial_perms`` gathers the medial from one list of darts; it gives
    the permutations of the former comprehensions, with one int object per
    dart."""

    @pytest.mark.parametrize("corpus", ["map corpus", "families up to n = 60"])
    def test_matches_former_construction(self, corpus):
        for m in FLAT_CORPORA[corpus]:
            assert maps_module._medial_perms(m.alpha, m.sigma) == oracle_medial_perms(
                m.alpha, m.sigma
            )

    @pytest.mark.parametrize("alpha,sigma", [((0,), (0,)), ((1, 0), (0, 1)), ((1, 0), (1, 0))])
    def test_one_and_two_darts(self, alpha, sigma):
        # itemgetter with one index returns the item itself, not a 1-tuple
        assert maps_module._medial_perms(alpha, sigma) == oracle_medial_perms(alpha, sigma)

    def test_one_int_object_per_dart(self):
        for m in family_members(60):
            med = medial(m)
            assert len({id(x) for x in med.alpha + med.sigma}) <= med.dart_count
