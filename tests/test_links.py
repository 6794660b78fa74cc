import math

import pytest
from hypothesis import given, strategies as st

from reference_values import ADAMS_A
from volbounds.lobachevsky import V_OCT, V_TET, VolumeExpr, lobachevsky
from volbounds.links import (
    CensusMismatchError,
    HypothesisFlags,
    NotApplicable,
    adams_a_case,
    adams_crossing_expr,
    adams_octahedral_expr,
    adams_twist_expr,
    agol_thurston_expr,
    dasbach_tsvietkova_expr,
    fkp_lower_expr,
    jones_bounds_expr,
    large_twist_expr,
    large_twist_refined_expr,
    link_report,
    two_bridge_bounds_expr,
    white_face_expr,
)
from volbounds.twists import TwistDecomposition, twist_stats

PI = math.pi


ALL_FLAGS = HypothesisFlags(
    reduced=True, alternating=True, two_bridge=True, not_figure_eight=True, not_borromean=True
)


def stats(*lengths):
    return twist_stats(TwistDecomposition(tuple(lengths)))


class TestCrossingBounds:
    def test_eleven_crossings(self):
        assert adams_crossing_expr(11).value == pytest.approx(28 * V_TET, abs=1e-12)

    def test_figure_eight_excluded(self):
        # the exclusion is a caller flag, so the report alone gates it
        flags = HypothesisFlags(reduced=True, alternating=True)
        for not_figure_eight in (False, True):
            rows = link_report(
                TwistDecomposition((2, 2)), flags._replace(not_figure_eight=not_figure_eight)
            )
            row = {r.name: r for r in rows}["adams-crossing"]
            assert row.applicable == not_figure_eight

    def test_too_few_crossings(self):
        with pytest.raises(NotApplicable):
            adams_crossing_expr(2)

    def test_five_crossings(self):
        assert adams_crossing_expr(5).value == pytest.approx(4 * V_TET, abs=1e-12)

    def test_octahedral(self):
        assert adams_octahedral_expr(11).value == pytest.approx(6 * V_OCT + 4 * V_TET, abs=1e-12)
        assert adams_octahedral_expr(11).value == pytest.approx(26.0429406858919, abs=1e-9)
        assert adams_octahedral_expr(5).value == pytest.approx(4 * V_TET, abs=1e-12)
        with pytest.raises(NotApplicable):
            adams_octahedral_expr(4)


class TestAgolThurston:
    def test_values(self):
        assert agol_thurston_expr(3).value == pytest.approx(20 * V_TET, abs=1e-12)
        assert agol_thurston_expr(1).value == 0.0
        assert agol_thurston_expr(9) == VolumeExpr.v_tet(80)
        with pytest.raises(ValueError):
            agol_thurston_expr(0)


class TestDasbachTsvietkova:
    def test_worked_example(self):
        value = dasbach_tsvietkova_expr(stats(3, 4, 4)).value
        assert value == pytest.approx(18 * V_TET, abs=1e-12)

    def test_a_six_branch(self):
        value = dasbach_tsvietkova_expr(stats(1, 1, 1)).value
        assert value == pytest.approx(6 * V_TET, abs=1e-12)

    def test_a_seven_branch(self):
        assert dasbach_tsvietkova_expr(stats(3)).value == pytest.approx(V_TET, abs=1e-12)


class TestAdamsTwist:
    def test_worked_example(self):
        # 16 L(pi/8) + 40 L(pi/10) - a(g5=0, t4>=1); frozen from the oracle
        value = adams_twist_expr(stats(3, 4, 4)).value
        assert value == pytest.approx(16.0427423092216, abs=1e-9)
        assert value == pytest.approx(16.0426, abs=2e-3)

    def test_all_length_one(self):
        value = adams_twist_expr(stats(1, 1, 1, 1, 1)).value
        assert value == pytest.approx(10 * V_TET - 2 * V_OCT, abs=1e-12)

    def test_three_twos(self):
        value = adams_twist_expr(stats(2, 2, 2)).value
        assert value == pytest.approx(7 * V_TET, abs=1e-12)

    def test_hypotheses(self):
        # reduced alternating and not Borromean are caller flags: the report
        # gates the row on both
        d = TwistDecomposition((3, 4, 4))
        assert {r.name: r for r in link_report(d, ALL_FLAGS)}["adams-twist"].applicable
        for flag in ("reduced", "alternating", "not_borromean"):
            rows = link_report(d, ALL_FLAGS._replace(**{flag: False}))
            assert not {r.name: r for r in rows}["adams-twist"].applicable
        with pytest.raises(NotApplicable):
            adams_twist_expr(stats(5, 5))  # t < 3
        with pytest.raises(NotApplicable):
            adams_twist_expr(stats(1, 1, 2))  # c < 5

    def test_case_selection_order(self):
        assert adams_a_case(stats(1, 1, 1))[0] == "g2=0"
        assert adams_a_case(stats(1, 2, 2))[0] == "g3=0 and t2>=1"
        assert adams_a_case(stats(2, 3, 3))[0] == "g4=0 and t3>=1"
        assert adams_a_case(stats(3, 4, 4))[0] == "g5=0 and t4>=1"
        assert adams_a_case(stats(1, 2, 7))[0] == "g5>=1"

    @given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=20))
    def test_case_exhaustive(self, lengths):
        adams_a_case(stats(*lengths))  # must never hit the unreachable branch

    DECIMAL_COEFFS = [
        ("t1", VolumeExpr.v_oct(), 3.663863),
        ("t2", VolumeExpr.v_tet(6), 6.089646),
        ("t3", VolumeExpr.lob(8, 16), 7.854977),
        ("t4", VolumeExpr.lob(10, 20), 9.237551),
        ("g5", VolumeExpr.v_tet(10), 10.149416),
    ]

    @pytest.mark.parametrize("name,expr,decimal", DECIMAL_COEFFS)
    def test_decimal_form_coefficients(self, name, expr, decimal):
        assert abs(expr.value - decimal) < 5e-6

    # the printed decimal labels each row, so the test ids keep it
    DECIMAL_A = [
        pytest.param(case, reference, id=f"{case}-{printed}")
        for case, (reference, printed) in ADAMS_A.items()
    ]

    @pytest.mark.parametrize("case,reference", DECIMAL_A)
    def test_decimal_form_a_values(self, case, reference):
        from volbounds.links import _ADAMS_A_CASES

        expr = dict(_ADAMS_A_CASES)[case]
        assert abs(expr.value - reference) < 1e-9, (
            f"a for case {case}: computed {expr.value:.12f}, reference {reference}"
        )


class TestLargeTwist:
    def test_values(self):
        assert large_twist_expr(9).value == pytest.approx(76 * V_TET, abs=1e-12)
        assert large_twist_expr(9) == VolumeExpr.v_tet(76)

    def test_boundary(self):
        with pytest.raises(NotApplicable):
            large_twist_expr(8)

    def test_gap_to_agol_thurston(self):
        for t in range(9, 101):
            gap = agol_thurston_expr(t) - large_twist_expr(t)
            assert gap == VolumeExpr.v_tet(4)

    def test_refined(self):
        assert large_twist_refined_expr(9, 0) == VolumeExpr.v_tet(77)
        assert large_twist_refined_expr(9, 1) == large_twist_expr(9)
        assert large_twist_refined_expr(9, 10) == VolumeExpr.v_tet(67)
        with pytest.raises(ValueError):
            large_twist_refined_expr(9, -1)
        with pytest.raises(NotApplicable):
            large_twist_refined_expr(8, 0)

    def test_beats_adams_twist_for_long_twists(self):
        # all lengths >= 5: exact bound is 10 v_tet t - a(g5>=1)
        for t in range(9, 30):
            long_stats = stats(*([5] * t))
            assert large_twist_expr(t).value < adams_twist_expr(long_stats).value - 1e-9


class TestFkpLower:
    def test_values(self):
        assert fkp_lower_expr(3, 7).value == pytest.approx(0.70735 * 2, abs=1e-12)

    def test_hypotheses(self):
        with pytest.raises(NotApplicable):
            fkp_lower_expr(3, 4)
        with pytest.raises(NotApplicable):
            fkp_lower_expr(1, 9)
        # reduced alternating is a caller flag: the report gates the row on it
        d = TwistDecomposition((9, 9, 9))
        assert {r.name: r for r in link_report(d, ALL_FLAGS)}["fkp-lower"].applicable
        for flag in ("reduced", "alternating"):
            rows = link_report(d, ALL_FLAGS._replace(**{flag: False}))
            assert not {r.name: r for r in rows}["fkp-lower"].applicable


class TestTwoBridge:
    def test_three_twists(self):
        lower, upper = (b.value for b in two_bridge_bounds_expr(3))
        assert lower == pytest.approx(6 * V_TET - 2.7066, abs=1e-12)
        assert upper == pytest.approx(4 * V_OCT, abs=1e-12)

    def test_two_twists(self):
        lower, upper = (b.value for b in two_bridge_bounds_expr(2))
        assert lower == pytest.approx(4 * V_TET - 2.7066, abs=1e-12)
        assert upper == pytest.approx(2 * V_OCT, abs=1e-12)

    def test_snappy_value_inside(self):
        lower, upper = (b.value for b in two_bridge_bounds_expr(3))
        assert lower < 10.117141 < upper

    def test_too_few(self):
        with pytest.raises(NotApplicable):
            two_bridge_bounds_expr(1)


class TestJones:
    def test_worked_example(self):
        lower, upper = jones_bounds_expr(1, 2)
        assert lower == VolumeExpr.v_oct(2)
        assert upper == VolumeExpr.v_tet(20)

    def test_max_parse(self):
        lower, upper = (b.value for b in jones_bounds_expr(1, 1))
        assert lower == pytest.approx(V_OCT, abs=1e-12)
        assert upper == pytest.approx(10 * V_TET, abs=1e-12)

    def test_degenerate(self):
        lower, upper = (b.value for b in jones_bounds_expr(0, 0))
        assert upper == pytest.approx(-10 * V_TET, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jones_bounds_expr(-1, 2)


class TestWhiteFace:
    def test_true_census_t3(self):
        value = white_face_expr(3, {3: 2, 4: 3}).value
        expected = 4 * V_TET + 2 * (6 * lobachevsky(PI / 3) + 12 * lobachevsky(PI / 4))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(19.1111199814039, abs=1e-9)

    def test_mismatched_census_rejected(self):
        # the printed t=3 census {3:3, 4:2} sums to 17, not 6t = 18
        with pytest.raises(CensusMismatchError):
            white_face_expr(3, {3: 3, 4: 2})

    # each passes the handshake sum 6t = 18 but cannot be a face census:
    # a 0-gon (L(pi/0) is undefined), bigons, or a negative count
    IMPOSSIBLE = ({0: 5, 6: 3}, {2: 9}, {3: -2, 4: 6})

    @pytest.mark.parametrize("census", IMPOSSIBLE)
    def test_impossible_census_rejected(self, census):
        with pytest.raises(CensusMismatchError):
            white_face_expr(3, census)

    @pytest.mark.parametrize("census", IMPOSSIBLE)
    def test_impossible_census_rejected_by_report(self, census):
        with pytest.raises(CensusMismatchError):
            link_report(TwistDecomposition((3, 4, 4)), ALL_FLAGS, white_census=census)

    def test_octahedral_census(self):
        assert white_face_expr(2, {3: 4}).value == pytest.approx(8 * V_TET, abs=1e-12)

    def test_too_few(self):
        with pytest.raises(NotApplicable):
            white_face_expr(1, {6: 1})


def test_not_applicable_is_a_value_error():
    # callers that reject bad input by catching ValueError keep working
    assert issubclass(NotApplicable, ValueError)
    assert not issubclass(CensusMismatchError, NotApplicable)


class TestLinkReport:
    FLAGS = ALL_FLAGS

    def test_worked_example(self):
        rows = link_report(
            TwistDecomposition((3, 4, 4)),
            self.FLAGS,
            white_census={3: 2, 4: 3},
            jones_coefficients=(1, 2),
        )
        by_name = {r.name: r for r in rows}
        assert by_name["adams-crossing"].value == pytest.approx(28 * V_TET, abs=1e-9)
        assert by_name["adams-twist"].value == pytest.approx(16.0427423092216, abs=1e-9)
        assert by_name["two-bridge-lower"].value == pytest.approx(3.38304963845792, abs=1e-9)
        assert not by_name["large-twist"].applicable
        snappy = 10.117141
        for row in rows:
            if not row.applicable:
                continue
            if row.kind == "lower":
                assert row.value < snappy
            else:
                assert snappy < row.value

    def test_best_markers(self):
        rows = link_report(TwistDecomposition((3, 4, 4)), self.FLAGS)
        uppers = [r for r in rows if r.applicable and r.kind == "upper"]
        lowers = [r for r in rows if r.applicable and r.kind == "lower"]
        best_upper = [r for r in uppers if r.best]
        best_lower = [r for r in lowers if r.best]
        assert len(best_upper) == 1 and best_upper[0].value == min(r.value for r in uppers)
        assert len(best_lower) == 1 and best_lower[0].value == max(r.value for r in lowers)

    def test_nine_long_twists(self):
        rows = link_report(TwistDecomposition((9,) * 9), self.FLAGS)
        by_name = {r.name: r for r in rows}
        assert by_name["large-twist"].applicable
        assert by_name["large-twist"].value < by_name["agol-thurston"].value

    def test_default_flags_gate(self):
        rows = link_report(TwistDecomposition((3, 4, 4)))
        by_name = {r.name: r for r in rows}
        for gated in ("adams-crossing", "adams-twist", "two-bridge-lower", "two-bridge-upper", "fkp-lower"):
            assert not by_name[gated].applicable
            assert by_name[gated].value is None
        for always in ("agol-thurston", "dasbach-tsvietkova"):
            assert by_name[always].applicable

    def test_value_present_iff_applicable(self):
        rows = link_report(TwistDecomposition((1, 7, 2)), HypothesisFlags(reduced=True))
        for row in rows:
            assert (row.value is not None) == row.applicable

    @given(
        st.integers(min_value=9, max_value=30).flatmap(
            lambda t: st.lists(
                st.integers(min_value=7, max_value=12), min_size=t, max_size=t
            )
        )
    )
    def test_lower_below_upper(self, lengths):
        flags = HypothesisFlags(
            reduced=True, alternating=True, not_figure_eight=True, not_borromean=True
        )
        rows = link_report(TwistDecomposition(tuple(lengths)), flags)
        lowers = [r.value for r in rows if r.applicable and r.kind == "lower"]
        uppers = [r.value for r in rows if r.applicable and r.kind == "upper"]
        assert lowers and uppers
        assert max(lowers) <= min(uppers) + 1e-9

    def test_lower_below_upper_bulk(self):
        import random

        rng = random.Random(9)
        flags = HypothesisFlags(
            reduced=True, alternating=True, not_figure_eight=True, not_borromean=True
        )
        for _ in range(1000):
            t = rng.randint(9, 30)
            lengths = tuple(rng.randint(7, 12) for _ in range(t))
            rows = link_report(TwistDecomposition(lengths), flags)
            lowers = [r.value for r in rows if r.applicable and r.kind == "lower"]
            uppers = [r.value for r in rows if r.applicable and r.kind == "upper"]
            assert max(lowers) <= min(uppers) + 1e-9
