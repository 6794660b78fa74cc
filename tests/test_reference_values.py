"""Cross-check of the exact references and the quadrature oracle against an
independent evaluation.

mpmath's Clausen function gives L(theta) = Cl_2(2 theta) / 2 at 30 digits, a
route that shares no code with the library's zeta series or its quadrature
oracle.
"""

import math
import random

import pytest

from reference_values import (
    ADAMS_A,
    ADAMS_CROSSING_C11,
    PRISM_CROSSOVER,
    THRESHOLD_P3_COEFFICIENT,
    THRESHOLD_RHS,
    V_OCT_EXACT,
    V_TET_EXACT,
)
from volbounds.lobachevsky import V_OCT, V_TET, lobachevsky_quadrature


def test_references_match_mpmath_clausen():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):

        def lob(n):  # L(pi/n)
            return mpmath.clsin(2, 2 * mpmath.pi / n) / 2

        vt, vo = 3 * lob(3), 8 * lob(4)
        assert abs(vt - V_TET) < 1e-13
        assert abs(vo - V_OCT) < 1e-13
        forms = [
            ("v_tet", vt, V_TET_EXACT),
            ("v_oct", vo, V_OCT_EXACT),
            ("prism crossover", (2 * vo - 4 * vt) / (1.5 * vo - 5 * vt), PRISM_CROSSOVER),
            ("threshold p3 coefficient", 3 * vt / (3 * vo - 10 * vt), THRESHOLD_P3_COEFFICIENT),
            ("threshold rhs", 6 * (3 * vo - 4 * vt) / (3 * vo - 10 * vt), THRESHOLD_RHS),
            ("28 v_tet", 28 * vt, ADAMS_CROSSING_C11),
            ("a g2=0", 7 * vo - 10 * vt, ADAMS_A["g2=0"][0]),
            ("a g3=0 and t2>=1", 11 * vt, ADAMS_A["g3=0 and t2>=1"][0]),
            (
                "a g4=0 and t3>=1",
                32 * lob(8) + 5 * vt - vo - 14 * lob(7),
                ADAMS_A["g4=0 and t3>=1"][0],
            ),
            (
                "a g5=0 and t4>=1",
                40 * lob(10) + 12 * lob(6) - 2 * vt - 8 * lob(4) - 18 * lob(9),
                ADAMS_A["g5=0 and t4>=1"][0],
            ),
            (
                "a g5>=1",
                4 * vt + 12 * lob(6) + 60 * lob(10) - 54 * lob(9),
                ADAMS_A["g5>=1"][0],
            ),
        ]
        for name, exact, reference in forms:
            assert abs(exact - reference) < 1e-10, f"{name}: mpmath {exact}, reference {reference}"


def test_quadrature_matches_mpmath_clausen():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(605)
    angles = [rng.uniform(-10.0, 10.0) for _ in range(200)] + [1e-9, math.pi / 2, math.pi - 1e-9]
    with mpmath.workdps(30):
        for theta in angles:
            exact = mpmath.clsin(2, 2 * mpmath.mpf(theta)) / 2
            assert abs(lobachevsky_quadrature(theta) - exact) < 1e-13, theta
