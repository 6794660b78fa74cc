import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st
from map_corpus import continued_fraction_value, oracle_continued_fraction

from volbounds.maps import MapError, validate_map
from volbounds.twists import (
    TwistDecomposition,
    TwistReducedDiagram,
    continued_fraction,
    diagram_from_dict,
    diagram_to_dict,
    twist_stats,
    two_bridge_diagram,
    two_bridge_lengths,
)


class TestContinuedFraction:
    def test_worked_example(self):
        assert continued_fraction(55, 17) == [3, 4, 4]

    def test_hopf(self):
        assert continued_fraction(2, 1) == [2]

    def test_reconstruction(self):
        assert continued_fraction_value([3, 4, 4]) == Fraction(55, 17)

    def test_all_coprime_pairs_up_to_500(self):
        for p in range(2, 501):
            for q in range(1, p):
                if gcd(p, q) == 1:
                    digits = continued_fraction(p, q)
                    assert digits[-1] >= 2
                    assert all(a >= 1 for a in digits)
                    assert continued_fraction_value(digits) == Fraction(p, q)

    @given(st.integers(min_value=2, max_value=500), st.integers(min_value=1, max_value=499))
    def test_round_trip(self, p, q):
        if not (0 < q < p and gcd(p, q) == 1):
            return
        assert continued_fraction_value(continued_fraction(p, q)) == Fraction(p, q)

    def test_constraint_violations(self):
        for p, q, message in (
            (1, 1, "need p >= 2, got 1"),
            (10, 0, "need 0 < q < p, got q=0"),
            (10, 10, "need 0 < q < p, got q=10"),
            (10, 4, "p and q must be coprime, got gcd=2"),
            (5.0, 2, "p and q must be integers"),
        ):
            with pytest.raises(ValueError) as info:
                continued_fraction(p, q)
            assert str(info.value) == f"continued_fraction: {message}"

    def test_matches_former_expansion_up_to_300(self):
        # the gcd is read off Euclid's last remainder; the former expansion
        # tested it first.  Both give the same digits or the same refusal.
        def outcome(expand, p, q):
            try:
                return expand(p, q)
            except ValueError as err:
                return str(err)

        refused = 0
        for p in range(-1, 301):
            for q in range(-1, p + 2):
                mine = outcome(continued_fraction, p, q)
                assert mine == outcome(oracle_continued_fraction, p, q), (p, q)
                refused += isinstance(mine, str)
        assert refused > 15000


class TestTwistStats:
    def test_worked_example(self):
        s = twist_stats(TwistDecomposition((3, 4, 4)))
        assert s.t == 3 and s.c == 11
        assert s.exactly(3) == 1 and s.exactly(4) == 2
        assert s.at_least(4) == 2 and s.at_least(5) == 0

    def test_single(self):
        s = twist_stats(TwistDecomposition((1,)))
        assert s.t == 1 and s.c == 1 and s.exactly(1) == 1 and s.at_least(2) == 0

    def test_signs_ignored(self):
        s = twist_stats(TwistDecomposition((-2, -2)))
        assert s.t == 2 and s.c == 4 and s.exactly(2) == 2

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            TwistDecomposition((3, 0, 4))
        with pytest.raises(ValueError):
            TwistDecomposition(())

    @given(st.lists(st.integers(min_value=-9, max_value=9).filter(bool), min_size=1, max_size=30))
    def test_identities(self, lengths):
        s = twist_stats(TwistDecomposition(tuple(lengths)))
        assert s.t == sum(s.exactly(i) for i in range(1, 10))
        assert s.c == sum(abs(n) for n in lengths)
        assert s.at_least(1) == s.t
        for i in range(1, 10):
            assert s.at_least(i) == s.exactly(i) + s.at_least(i + 1)


def reference_two_bridge_permutations(t: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(alpha, sigma) of the t-twist two-bridge diagram, built dart by dart
    as the library used to build it."""
    RT, LT, LB, RB = 0, 1, 2, 3
    sigma = [0] * (4 * t)
    for i in range(t):
        for j in range(4):
            sigma[4 * i + j] = 4 * i + (j + 1) % 4

    def dart(i: int, role: int) -> int:
        return 4 * i + role

    pairs: list[tuple[int, int]] = []
    for i in range(t - 1):
        if i % 2 == 0:
            pairs.append((dart(i, RB), dart(i + 1, LT)))
        else:
            pairs.append((dart(i, RT), dart(i + 1, LB)))
    for i in range(t - 2):
        if i % 2 == 0:
            pairs.append((dart(i, RT), dart(i + 2, LT)))
        else:
            pairs.append((dart(i, RB), dart(i + 2, LB)))
    pairs.append((dart(0, LB), dart(1, LB)))
    if t % 2 == 1:
        pairs.append((dart(t - 2, RB), dart(t - 1, RB)))
        pairs.append((dart(t - 1, RT), dart(0, LT)))
    else:
        pairs.append((dart(t - 2, RT), dart(t - 1, RT)))
        pairs.append((dart(t - 1, RB), dart(0, LT)))

    alpha = [-1] * (4 * t)
    for a, b in pairs:
        alpha[a], alpha[b] = b, a
    return tuple(alpha), tuple(sigma)


class TestTwoBridgeDiagram:
    def test_worked_example(self):
        d = two_bridge_diagram(55, 17)
        c = validate_map(d.map)
        assert (c.V, c.E, c.F) == (3, 6, 5)
        assert d.lengths == (3, 4, 4)

    def test_two_twists(self):
        d = two_bridge_diagram(5, 2)
        c = validate_map(d.map)
        assert (c.V, c.E, c.F) == (2, 4, 4)
        assert d.lengths == (2, 2)

    def test_single_twist_degenerate(self):
        message = "two_bridge_lengths: b(3/1) has a single twist region: a (2, 3) torus link"
        for build in (two_bridge_diagram, two_bridge_lengths):
            with pytest.raises(ValueError) as info:
                build(3, 1)
            assert str(info.value) == message

    def test_mirror_digits_come_from_one_expansion(self):
        # for 2q > p the mirror's digits are read off p/q's own expansion
        refused = []
        for p in range(3, 201):
            for q in range(p // 2 + 1, p):
                if gcd(p, q) != 1:
                    continue
                mirror = continued_fraction(p, p - q)
                if len(mirror) >= 2:
                    assert two_bridge_lengths(p, q) == tuple(mirror)
                    continue
                with pytest.raises(ValueError) as info:
                    two_bridge_lengths(p, q)
                assert str(info.value) == (
                    f"two_bridge_lengths: b({p}/{q}) has a single twist region: a (2, {p}) torus link"
                )
                refused.append((p, q))
        assert refused == [(p, p - 1) for p in range(3, 201)]  # the torus mirrors, 7/6 among them

    def test_matches_reference_builder_below_300(self):
        checked = 0
        for p in range(2, 300):
            for q in range(1, p):
                if gcd(p, q) != 1 or q in (1, p - 1):  # torus links are refused
                    continue
                d = two_bridge_diagram(p, q)
                assert (d.map.alpha, d.map.sigma) == reference_two_bridge_permutations(d.t)
                checked += 1
        assert checked > 20000

    def test_matches_reference_builder_at_1000_twists(self):
        value = continued_fraction_value([2] + [1] * 998 + [2])
        d = two_bridge_diagram(value.numerator, value.denominator)
        assert d.t == 1000
        assert (d.map.alpha, d.map.sigma) == reference_two_bridge_permutations(1000)

    @given(st.lists(st.integers(min_value=1, max_value=7), min_size=2, max_size=12))
    def test_map_shape(self, digits):
        # the Conway normal form: a leading 1 would read as the mirror, with t - 1 twists
        digits = [max(digits[0], 2)] + digits[1:-1] + [max(digits[-1], 2)]
        value = continued_fraction_value(digits)
        d = two_bridge_diagram(value.numerator, value.denominator)
        c = validate_map(d.map)
        t = len(digits)
        assert (c.V, c.E, c.F) == (t, 2 * t, t + 2)
        assert c.is_four_regular()


class TestDiagramValidation:
    def test_requires_four_regular(self):
        from volbounds.maps import tetrahedron

        with pytest.raises(MapError):
            TwistReducedDiagram(map=tetrahedron(), axis=(0,) * 4, lengths=(1,) * 4)

    def test_axis_length_sizes(self):
        d = two_bridge_diagram(5, 2)
        with pytest.raises(ValueError):
            TwistReducedDiagram(map=d.map, axis=(1,), lengths=d.lengths)
        with pytest.raises(ValueError):
            TwistReducedDiagram(map=d.map, axis=(1, 2), lengths=d.lengths)
        with pytest.raises(ValueError):
            TwistReducedDiagram(map=d.map, axis=d.axis, lengths=(2, 0))


class TestDiagramFiles:
    def test_round_trip(self):
        d = two_bridge_diagram(100, 43)
        data = json.loads(json.dumps(diagram_to_dict(d)))
        assert set(data) == {"darts", "alpha", "sigma", "axis", "lengths"}
        assert diagram_from_dict(data) == d

    def test_missing_fields(self):
        d = two_bridge_diagram(5, 2)
        data = diagram_to_dict(d)
        del data["axis"]
        with pytest.raises(MapError):
            diagram_from_dict(data)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("lengths", [2.7, 2.2]),
            ("lengths", [2.0, 2]),
            ("lengths", ["2", "2"]),
            ("axis", [1.0, 0.9]),
            ("axis", [True, True]),
        ],
    )
    def test_non_integer_entries_are_a_format_error(self, field, value):
        data = diagram_to_dict(two_bridge_diagram(5, 2))
        data[field] = value
        with pytest.raises(MapError) as err:
            diagram_from_dict(data)
        assert err.value.violation == "format"
