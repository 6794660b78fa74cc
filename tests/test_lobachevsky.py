import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from reference_values import V_OCT_EXACT, V_TET_EXACT

from volbounds.lobachevsky import (
    V_OCT,
    V_TET,
    VolumeExpr,
    antiprism_volume,
    bipyramid_log_bound,
    ideal_tetrahedron_volume,
    lobachevsky,
    lobachevsky_quadrature,
    regular_bipyramid_volume,
    twisted_antiprism_volume,
    v_oct,
    v_tet,
)

PI = math.pi

# frozen from the quadrature oracle (cross-checked against clsin at 30 digits)
L_PI_3 = 0.3383138688032179
L_PI_4 = 0.4579827970886095
L_PI_6 = 0.5074708032048268


def test_zero_and_half_pi():
    assert lobachevsky(0.0) == 0.0
    assert abs(lobachevsky(PI / 2)) < 1e-12
    assert abs(lobachevsky(-PI / 2)) < 1e-12


def test_golden_values():
    assert lobachevsky(PI / 3) == pytest.approx(L_PI_3, abs=1e-13)
    assert lobachevsky(PI / 4) == pytest.approx(L_PI_4, abs=1e-13)
    assert lobachevsky(PI / 6) == pytest.approx(L_PI_6, abs=1e-13)
    # L(pi/6) = (3/2) L(pi/3) via the duplication identity
    assert lobachevsky(PI / 6) == pytest.approx(1.5 * lobachevsky(PI / 3), abs=1e-12)


def test_constants():
    assert v_tet() == pytest.approx(V_TET_EXACT, abs=1e-9)
    assert v_oct() == pytest.approx(V_OCT_EXACT, abs=1e-9)
    assert V_TET == v_tet()
    assert V_OCT == v_oct()
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


def test_maximum_at_pi_over_six():
    grid = [i * PI / 5000 for i in range(5001)]
    best = max(grid, key=lobachevsky)
    assert abs(best - PI / 6) <= PI / 5000 + 1e-15


def test_ideal_tetrahedron_volume():
    assert ideal_tetrahedron_volume(3) == pytest.approx(2 * L_PI_3, abs=1e-12)
    assert ideal_tetrahedron_volume(4) == pytest.approx(V_OCT / 4, abs=1e-12)
    # series value must agree with the quadrature form of the same integral
    for n in (3, 5, 9, 17):
        assert ideal_tetrahedron_volume(n) == pytest.approx(
            2 * lobachevsky_quadrature(PI / n), abs=1e-9
        )
    with pytest.raises(ValueError):
        ideal_tetrahedron_volume(2)


def test_regular_bipyramid_volume():
    assert regular_bipyramid_volume(3) == pytest.approx(2 * V_TET, abs=1e-12)
    assert regular_bipyramid_volume(4) == pytest.approx(V_OCT, abs=1e-12)
    with pytest.raises(ValueError):
        regular_bipyramid_volume(2)


def test_bipyramid_log_bound_dominates():
    assert bipyramid_log_bound(4) == pytest.approx(2 * PI * math.log(2), abs=1e-12)
    with pytest.raises(ValueError):
        bipyramid_log_bound(2)
    for n in range(3, 101):
        assert regular_bipyramid_volume(n) < bipyramid_log_bound(n) + 1e-9


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


class TestVolumeExpr:
    def test_arithmetic(self):
        e = 3 * VolumeExpr.v_tet(5) - 2 * VolumeExpr.v_oct()
        assert e.coefficient("v_tet") == 15
        assert e.coefficient("v_oct") == -2
        assert e.value == pytest.approx(15 * V_TET - 2 * V_OCT, abs=1e-12)

    def test_cancellation(self):
        zero = VolumeExpr.v_tet(4) - 2 * VolumeExpr.v_tet(2)
        assert zero == VolumeExpr()
        assert zero.value == 0.0

    def test_fraction_scalars(self):
        e = Fraction(5, 3) * VolumeExpr.v_tet()
        assert e.coefficient("v_tet") == Fraction(5, 3)

    def test_basis_values(self):
        assert VolumeExpr.lob(4, 8).value == pytest.approx(V_OCT, abs=1e-12)
        assert VolumeExpr.lob(3, 3).value == pytest.approx(V_TET, abs=1e-12)
        assert VolumeExpr.pilog(4).value == pytest.approx(PI * math.log(2), abs=1e-12)
        assert VolumeExpr.constant(Fraction(27066, 10000)).value == pytest.approx(2.7066)
