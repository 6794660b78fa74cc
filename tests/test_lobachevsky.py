import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from reference_values import V_OCT_EXACT, V_TET_EXACT

from volbounds.links import adams_twist_expr, white_face_expr
from volbounds.lobachevsky import (
    V_OCT,
    V_TET,
    NotApplicable,
    VolumeExpr,
    antiprism_expr,
    antiprism_volume,
    lobachevsky,
    lobachevsky_quadrature,
    report,
    twisted_antiprism_expr,
    twisted_antiprism_volume,
)
from volbounds.maps import SkeletonCensus
from volbounds.polyhedra import face_census_expr
from volbounds.twists import TwistDecomposition, twist_stats

PI = math.pi

# frozen from the quadrature oracle (cross-checked against clsin at 30 digits)
L_PI_3 = 0.3383138688032179
L_PI_4 = 0.4579827970886095
L_PI_6 = 0.5074708032048268


def test_zero_and_half_pi():
    assert lobachevsky(0.0) == 0.0
    assert abs(lobachevsky(PI / 2)) < 1e-12
    assert abs(lobachevsky(-PI / 2)) < 1e-12
    assert lobachevsky_quadrature(PI) == 0.0


def test_golden_values():
    assert lobachevsky(PI / 3) == pytest.approx(L_PI_3, abs=1e-13)
    assert lobachevsky(PI / 4) == pytest.approx(L_PI_4, abs=1e-13)
    assert lobachevsky(PI / 6) == pytest.approx(L_PI_6, abs=1e-13)
    # L(pi/6) = (3/2) L(pi/3) via the duplication identity
    assert lobachevsky(PI / 6) == pytest.approx(1.5 * lobachevsky(PI / 3), abs=1e-12)


def test_constants():
    assert V_TET == pytest.approx(V_TET_EXACT, abs=1e-9)
    assert V_OCT == pytest.approx(V_OCT_EXACT, abs=1e-9)
    assert V_TET == 3.0 * lobachevsky(PI / 3)
    assert V_OCT == 8.0 * lobachevsky(PI / 4)
    assert V_OCT / 8 == pytest.approx(lobachevsky(PI / 4), abs=1e-15)


def test_non_finite_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            lobachevsky(bad)
        with pytest.raises(ValueError):
            lobachevsky_quadrature(bad)


@given(st.floats(min_value=-3.1, max_value=3.1))
def test_oddness(theta):
    assert lobachevsky(-theta) == pytest.approx(-lobachevsky(theta), abs=1e-11)


@given(st.floats(min_value=-3.1, max_value=3.1))
def test_periodicity(theta):
    assert lobachevsky(theta + PI) == pytest.approx(lobachevsky(theta), abs=1e-11)


@given(st.floats(min_value=1e-6, max_value=PI / 2 - 1e-6))
def test_duplication_identity(x):
    lhs = lobachevsky(2 * x)
    rhs = 2 * lobachevsky(x) + 2 * lobachevsky(x + PI / 2)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_series_matches_quadrature():
    rng = random.Random(2024)
    for _ in range(40):
        theta = rng.uniform(1e-4, PI - 1e-4)
        assert lobachevsky(theta) == pytest.approx(lobachevsky_quadrature(theta), abs=1e-9)


def test_quadrature_runs_without_scipy():
    # the oracle needs only the standard library
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from volbounds.lobachevsky import lobachevsky, lobachevsky_quadrature\n"
        "for theta in (1e-6, 0.5, 1.0, 2.0, 3.1, -7.0):\n"
        "    assert abs(lobachevsky_quadrature(theta) - lobachevsky(theta)) < 1e-12, theta\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_maximum_at_pi_over_six():
    grid = [i * PI / 5000 for i in range(5001)]
    best = max(grid, key=lobachevsky)
    assert abs(best - PI / 6) <= PI / 5000 + 1e-15


def test_ideal_tetrahedron_volume():
    # the tetrahedron slice 2 L(pi/n) of the regular ideal n-gonal bipyramid
    assert VolumeExpr.lob(3, 2).value == pytest.approx(2 * L_PI_3, abs=1e-12)
    assert VolumeExpr.lob(4, 2).value == pytest.approx(V_OCT / 4, abs=1e-12)
    # series value must agree with the quadrature form of the same integral
    for n in (3, 5, 9, 17):
        assert VolumeExpr.lob(n, 2).value == pytest.approx(
            2 * lobachevsky_quadrature(PI / n), abs=1e-9
        )


def test_regular_bipyramid_volume():
    # the regular ideal n-gonal bipyramid 2n L(pi/n)
    assert VolumeExpr.lob(3, 6).value == pytest.approx(2 * V_TET, abs=1e-12)
    assert VolumeExpr.lob(4, 8).value == pytest.approx(V_OCT, abs=1e-12)
    for n in (3, 5, 9, 17):
        assert VolumeExpr.lob(n, 2 * n).value == pytest.approx(
            2 * n * lobachevsky_quadrature(PI / n), abs=1e-9
        )


def test_bipyramid_log_bound_dominates():
    assert VolumeExpr.pilog(4, 2).value == pytest.approx(2 * PI * math.log(2), abs=1e-12)
    for n in range(3, 101):
        assert VolumeExpr.lob(n, 2 * n).value < VolumeExpr.pilog(n, 2).value


def test_antiprism_volume():
    assert antiprism_volume(3) == pytest.approx(V_OCT, abs=1e-12)
    assert antiprism_volume(4) == pytest.approx(6.023046020047189, abs=1e-12)
    with pytest.raises(ValueError):
        antiprism_volume(2)


def test_twisted_antiprism_volume():
    assert twisted_antiprism_volume(4) == pytest.approx(2 * V_OCT, abs=1e-12)
    assert twisted_antiprism_volume(5) == pytest.approx(9.686908396756065, abs=1e-12)
    assert twisted_antiprism_volume(7) == pytest.approx(
        antiprism_volume(6) + antiprism_volume(3), abs=1e-12
    )
    with pytest.raises(ValueError):
        twisted_antiprism_volume(3)


def test_antiprism_expr_matches_float_oracle():
    for n in range(3, 201):
        assert antiprism_expr(n).value == pytest.approx(antiprism_volume(n), rel=1e-12)
    for n in range(4, 201):
        assert twisted_antiprism_expr(n).value == pytest.approx(
            twisted_antiprism_volume(n), rel=1e-12
        )
    with pytest.raises(ValueError):
        antiprism_expr(2)
    with pytest.raises(ValueError):
        twisted_antiprism_expr(3)


def test_antiprism_expr_closed_forms():
    # A(4): 8 [L(3 pi/8) + L(pi/8)]; A(6) in lowest terms: 12 [L(pi/3) + L(pi/6)]
    assert antiprism_expr(4) == VolumeExpr({("lob", 3, 8): 8, ("lob", 1, 8): 8})
    assert antiprism_expr(6) == VolumeExpr.lob(3, 12) + VolumeExpr.lob(6, 12)
    assert repr(antiprism_expr(4)) == "VolumeExpr(8*L(pi/8) + 8*L(3*pi/8))"
    assert twisted_antiprism_expr(7) == antiprism_expr(6) + antiprism_expr(3)


class TestVolumeExpr:
    def test_arithmetic(self):
        e = 3 * VolumeExpr.v_tet(5) - 2 * VolumeExpr.v_oct()
        assert e.coefficient("v_tet") == 15
        assert e.coefficient("v_oct") == -2
        assert e.value == pytest.approx(15 * V_TET - 2 * V_OCT, abs=1e-12)
        assert -e == (-1) * e
        assert (-e).coefficient("v_oct") == 2

    def test_cancellation(self):
        zero = VolumeExpr.v_tet(4) - 2 * VolumeExpr.v_tet(2)
        assert zero == VolumeExpr()
        assert zero.value == 0.0
        assert repr(zero) == repr(VolumeExpr()) == "VolumeExpr(0)"

    def test_sums_take_only_expressions(self):
        # a number is added as VolumeExpr.constant(...), never bare
        e = VolumeExpr.v_tet(2)
        for other in (1, Fraction(1, 2), 1.0, "v_tet"):
            with pytest.raises(TypeError):
                e + other
            with pytest.raises(TypeError):
                e - other

    def test_fraction_scalars(self):
        e = Fraction(5, 3) * VolumeExpr.v_tet()
        assert e.coefficient("v_tet") == Fraction(5, 3)

    def test_basis_values(self):
        assert VolumeExpr.lob(4, 8).value == pytest.approx(V_OCT, abs=1e-12)
        assert VolumeExpr.lob(3, 3).value == pytest.approx(V_TET, abs=1e-12)
        assert VolumeExpr.pilog(4).value == pytest.approx(PI * math.log(2), abs=1e-12)
        assert VolumeExpr.constant(Fraction(27066, 10000)).value == pytest.approx(2.7066)

    def test_lob_is_the_p_equals_one_key(self):
        for n in range(2, 40):
            built = VolumeExpr({("lob", 1, n): 3})
            assert VolumeExpr.lob(n, 3) == built
            assert hash(VolumeExpr.lob(n, 3)) == hash(built)
            assert VolumeExpr.lob(n).terms == {("lob", 1, n): 1}

    def test_lob_keys_are_canonical(self):
        # lowest terms, and 0 < p/q <= 1/2 by L(x + pi) = L(x) = -L(-x)
        assert VolumeExpr({("lob", 2, 16): 1}) == VolumeExpr.lob(8)
        assert VolumeExpr({("lob", 9, 8): 1}) == VolumeExpr.lob(8)
        assert VolumeExpr({("lob", 7, 8): 1}) == VolumeExpr.lob(8, -1)
        assert VolumeExpr({("lob", -1, 8): 1}) == VolumeExpr.lob(8, -1)
        assert VolumeExpr({("lob", 4, 8): 1}) == VolumeExpr.lob(2)
        for zero in (("lob", 0, 5), ("lob", 3, 3), ("lob", -4, 2)):
            assert VolumeExpr({zero: 1}) == VolumeExpr()
        # two spellings of one constant merge into one term
        merged = VolumeExpr({("lob", 1, 8): 1, ("lob", 2, 16): 2, ("lob", 7, 8): 5})
        assert merged == VolumeExpr.lob(8, -2)
        assert VolumeExpr({("lob", 1, 8): 1, ("lob", 7, 8): 1}) == VolumeExpr()
        # arithmetic on canonical terms stays canonical
        total = VolumeExpr({("lob", 2, 16): 1}) + 3 * VolumeExpr({("lob", 9, 8): 1})
        assert total.terms == {("lob", 1, 8): 4} and hash(total) == hash(VolumeExpr.lob(8, 4))

    def test_every_key_evaluates_its_angle(self):
        for q in range(1, 13):
            for p in range(-2 * q, 2 * q + 1):
                expr = VolumeExpr({("lob", p, q): 1})
                for _, a, b in expr.terms:
                    assert 0 < 2 * a <= b and math.gcd(a, b) == 1
                assert expr.value == pytest.approx(lobachevsky(PI * p / q), abs=1e-13)

    def test_reprs_of_existing_forms(self):
        # widening the basis to L(p*pi/q) left every L(pi/n) repr as it was
        q14 = SkeletonCensus(V=12, E=24, F=14, degree_counts={4: 12}, face_counts={3: 8, 4: 6})
        assert repr(adams_twist_expr(twist_stats(TwistDecomposition((3, 4, 4))))) == (
            "VolumeExpr(8*L(pi/4) + -12*L(pi/6) + 16*L(pi/8) + 18*L(pi/9) + 2*v_tet)"
        )
        assert repr(white_face_expr(3, {3: 2, 4: 3})) == (
            "VolumeExpr(12*L(pi/3) + 24*L(pi/4) + 4*v_tet)"
        )
        assert repr(face_census_expr(q14)) == "VolumeExpr(24*L(pi/3) + 24*L(pi/4) + -4*v_tet)"

    def test_float_coefficients_refused(self):
        # a float is stored as its binary value: 0.1 would be 3602879701896397/2**55
        for build in (VolumeExpr.v_tet, VolumeExpr.v_oct, VolumeExpr.constant,
                      lambda c: VolumeExpr.lob(8, c), lambda c: VolumeExpr.pilog(4, c),
                      lambda c: VolumeExpr({"v_tet": c})):
            with pytest.raises(TypeError, match="0.1"):
                build(0.1)
            with pytest.raises(TypeError):
                build(1.0)
            assert build(Fraction(1, 10)) == Fraction(1, 10) * build(1)
        with pytest.raises(TypeError):
            VolumeExpr.v_tet(5) * 0.5

    def test_malformed_lob_key_rejected(self):
        # and every other key the basis cannot evaluate, named in the message
        for bad in (("lob", 8), ("lob", 1, 8, 1), ("lob", 1.0, 8), ("lob", 1, 0), ("lob", 1, -8),
                    "foo", 7, ("pilog", 2.5), ("pilog", 0), ("pilog",)):
            with pytest.raises(ValueError) as err:
                VolumeExpr({bad: 1})
            assert str(err.value) == f"VolumeExpr: {bad!r} is not a basis key"

    BASIS_KEYS = st.one_of(
        st.sampled_from(["one", "v_tet", "v_oct"]),
        # non-canonical spellings too: p outside (0, q/2], p/q not in lowest terms
        st.tuples(st.just("lob"), st.integers(-40, 40), st.integers(1, 40)),
        st.tuples(st.just("pilog"), st.integers(1, 60)),
    )
    COEFFICIENTS = st.builds(
        lambda n, d, e: Fraction(n, d) * Fraction(10) ** e,
        st.integers(-10**6, 10**6),
        st.integers(1, 1000),
        st.integers(-8, 8),
    )

    @given(st.lists(st.tuples(BASIS_KEYS, COEFFICIENTS), min_size=2, max_size=12), st.data())
    def test_value_ignores_term_order(self, terms, data):
        # an expression's float depends on its terms only, not on the order they were added in
        built = []
        for order in (data.draw(st.permutations(terms)), data.draw(st.permutations(terms))):
            expr = VolumeExpr()
            for key, coef in order:
                expr = expr + VolumeExpr({key: coef})
            built.append(expr)
        first, second = built
        assert first == second
        assert first.value.hex() == second.value.hex()


class TestReport:
    """A row applies iff it prints no unmet hypothesis and its form succeeds."""

    def test_printed_unmet_hypothesis_skips_the_form(self):
        def form():
            raise AssertionError("computed a gated row")

        (row,) = report((("r", "upper", ("a", "b"), "c", form),), {"b"})
        assert not row.applicable and row.value is None

    def test_unmet_hypotheses_the_row_does_not_print_are_ignored(self):
        (row,) = report((("r", "upper", ("a",), "c", lambda: VolumeExpr.v_tet(2)),), {"b"})
        assert row.applicable and row.value == VolumeExpr.v_tet(2).value

    def test_not_applicable_from_the_form_makes_the_row_inapplicable(self):
        def form():
            raise NotApplicable("numeric hypothesis fails")

        (row,) = report((("r", "lower", ("a",), "c", form),), set())
        assert not row.applicable and row.value is None

    def test_each_form_runs_once_on_the_inputs_in_table_order(self):
        calls = []

        def recording(name, coef):
            def form(*args):
                calls.append((name, args))
                return VolumeExpr.v_oct(coef)
            return form

        table = [(n, "upper", ("a",), "c", recording(n, k)) for k, n in enumerate("xyz", 1)]
        rows = report(table, set(), 1, "two")
        assert calls == [("x", (1, "two")), ("y", (1, "two")), ("z", (1, "two"))]
        assert [r.name for r in rows] == ["x", "y", "z"]
        assert [r.value for r in rows] == [VolumeExpr.v_oct(k).value for k in (1, 2, 3)]
        assert not any(r.best for r in rows)

    def test_a_row_that_prints_an_unmet_text_never_calls_its_form(self):
        calls = []

        def form(*args):
            calls.append(args)
            return VolumeExpr.v_tet()

        table = [("gated", "upper", ("a", "b"), "c", form), ("open", "lower", ("a",), "c", form)]
        gated, applied = report(table, {"b"}, 7)
        assert calls == [(7,)]
        assert gated.value is None and not gated.applicable
        assert applied.applicable and applied.value == VolumeExpr.v_tet().value
