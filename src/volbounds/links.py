"""Upper and lower volume bounds for hyperbolic link complements.

All bounds take the twist decomposition of a diagram (and, for some, extra
data: Jones coefficients, the white face census of the augmented polyhedron).
Hyperbolicity and diagram-level hypotheses (reduced, alternating, named-link
exclusions) cannot be decided from a decomposition, so they enter as caller
flags that gate applicability; the report never silently assumes them.

Each hypothesis is checked in one place.  A ``*_expr`` function raises
:class:`NotApplicable`, with a message, when a hypothesis on its own numeric
arguments fails (e.g. ``t > 8``); it takes no flags.  :func:`link_report`
gates a row, through ``bound_row(..., applicable=...)``, only on what those
arguments cannot show: the caller's flags and optional data.

Bounds are assembled as exact rational combinations of the transcendental
constants (see :class:`VolumeExpr`); the report converts each to a float in
:func:`bound_row`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .lobachevsky import Bound, NotApplicable, VolumeExpr, bound_row, mark_best
from .twists import TwistDecomposition, TwistStats, twist_stats

__all__ = [
    "HypothesisFlags",
    "NotApplicable",
    "CensusMismatchError",
    "adams_crossing_expr",
    "adams_octahedral_expr",
    "agol_thurston_expr",
    "dasbach_tsvietkova_expr",
    "adams_twist_expr",
    "large_twist_expr",
    "large_twist_refined_expr",
    "fkp_lower_expr",
    "two_bridge_bounds_expr",
    "jones_bounds_expr",
    "white_face_expr",
    "link_report",
]


class CensusMismatchError(ValueError):
    """White-face census is impossible: a face size below 3, a negative
    count, or a handshake sum n*f_n other than 6t."""


class HypothesisFlags(
    namedtuple(
        "HypothesisFlags",
        "reduced alternating two_bridge not_figure_eight not_borromean",
        defaults=(False,) * 5,
    )
):
    """Caller-asserted diagram/link properties; everything defaults to False."""

    __slots__ = ()


def adams_crossing_expr(c: int) -> VolumeExpr:
    """Crossing-number bound v_tet (4c - 16) for hyperbolic knots other than
    the figure-eight (an exclusion the report gates)."""
    if c < 3:
        raise NotApplicable("crossing bound needs at least 3 crossings")
    return VolumeExpr.v_tet(4 * c - 16)


def adams_octahedral_expr(c: int) -> VolumeExpr:
    """Octahedral crossing bound v_oct (c - 5) + 4 v_tet for c >= 5."""
    if c < 5:
        raise NotApplicable("octahedral bound needs at least 5 crossings")
    return VolumeExpr.v_oct(c - 5) + VolumeExpr.v_tet(4)


def agol_thurston_expr(t: int) -> VolumeExpr:
    """Twist-number bound 10 v_tet (t - 1), asymptotically sharp."""
    if t < 1:
        raise ValueError("agol_thurston_expr: need at least one twist")
    return VolumeExpr.v_tet(10 * (t - 1))


def dasbach_tsvietkova_expr(s: TwistStats) -> VolumeExpr:
    """Twist-length refinement v_tet (4 t1 + 6 t2 + 8 t3 + 10 g4 - a) of the
    twist-number bound, valid for reduced diagrams (alternating or not)."""
    t1, t2, t3 = s.exactly(1), s.exactly(2), s.exactly(3)
    g4 = s.at_least(4)
    if g4:
        a = 10
    elif t3:
        a = 7
    else:
        a = 6
    return VolumeExpr.v_tet(4 * t1 + 6 * t2 + 8 * t3 + 10 * g4 - a)


# exact forms of the subtraction constant in the Adams twist-length bound
_ADAMS_A_CASES = (
    ("g2=0", VolumeExpr.v_oct(7) - VolumeExpr.v_tet(10)),
    ("g3=0 and t2>=1", VolumeExpr.v_tet(11)),
    (
        "g4=0 and t3>=1",
        VolumeExpr.lob(8, 32) + VolumeExpr.v_tet(5) - VolumeExpr.v_oct() - VolumeExpr.lob(7, 14),
    ),
    (
        "g5=0 and t4>=1",
        VolumeExpr.lob(10, 40)
        + VolumeExpr.lob(6, 12)
        - VolumeExpr.v_tet(2)
        - VolumeExpr.lob(4, 8)
        - VolumeExpr.lob(9, 18),
    ),
    (
        "g5>=1",
        VolumeExpr.v_tet(4) + VolumeExpr.lob(6, 12) + VolumeExpr.lob(10, 60) - VolumeExpr.lob(9, 54),
    ),
)


def adams_a_case(s: TwistStats) -> tuple[str, VolumeExpr]:
    """Select the subtraction constant, first matching case in printed order."""
    if s.at_least(2) == 0:
        return _ADAMS_A_CASES[0]
    if s.at_least(3) == 0 and s.exactly(2) >= 1:
        return _ADAMS_A_CASES[1]
    if s.at_least(4) == 0 and s.exactly(3) >= 1:
        return _ADAMS_A_CASES[2]
    if s.at_least(5) == 0 and s.exactly(4) >= 1:
        return _ADAMS_A_CASES[3]
    if s.at_least(5) >= 1:
        return _ADAMS_A_CASES[4]
    raise AssertionError("a-case analysis not exhaustive")  # unreachable for t >= 1


def adams_twist_expr(s: TwistStats) -> VolumeExpr:
    """Adams' per-length twist bound t1 v_oct + 6 t2 v_tet + 16 t3 L(pi/8)
    + 20 t4 L(pi/10) + 10 g5 v_tet - a.

    Hypotheses: c >= 5, t >= 3 (unmet, they raise :class:`NotApplicable`),
    reduced alternating diagram, link is not the Borromean rings (gated by
    the report).
    """
    if s.t < 3:
        raise NotApplicable("twist-length bound needs at least 3 twists")
    if s.c < 5:
        raise NotApplicable("twist-length bound needs at least 5 crossings")
    _, a = adams_a_case(s)
    return (
        VolumeExpr.v_oct(s.exactly(1))
        + VolumeExpr.v_tet(6 * s.exactly(2))
        + VolumeExpr.lob(8, 16 * s.exactly(3))
        + VolumeExpr.lob(10, 20 * s.exactly(4))
        + VolumeExpr.v_tet(10 * s.at_least(5))
        - a
    )


def large_twist_expr(t: int) -> VolumeExpr:
    """Improved twist-number bound 10 v_tet (t - 1.4) for diagrams with more
    than eight twists."""
    if t <= 8:
        raise NotApplicable("large-twist bound needs t > 8")
    return VolumeExpr.v_tet(Fraction(10) * (t - Fraction(14, 10)))


def large_twist_refined_expr(t: int, delta: int) -> VolumeExpr:
    """Refinement 10 v_tet (t - 1.3 - delta/10) when the augmented polyhedron
    has delta + 2t triangles."""
    if t <= 8:
        raise NotApplicable("refined large-twist bound needs t > 8")
    if delta < 0:
        raise ValueError("large_twist_refined_expr: delta must be nonnegative")
    return VolumeExpr.v_tet(Fraction(10) * (t - Fraction(13, 10) - Fraction(delta, 10)))


def fkp_lower_expr(t: int, min_twist_length: int) -> VolumeExpr:
    """Lower bound 0.70735 (t - 1) for reduced alternating diagrams with
    t >= 2 twists, every twist of length at least 7."""
    if t < 2:
        raise NotApplicable("lower bound needs at least 2 twists")
    if min_twist_length < 7:
        raise NotApplicable("lower bound needs all twists of length >= 7")
    return VolumeExpr.constant(Fraction(70735, 100000) * (t - 1))


def two_bridge_bounds_expr(t: int) -> tuple[VolumeExpr, VolumeExpr]:
    """Two-sided bounds (lower, upper): 2 v_tet t - 2.7066 <= vol <=
    2 v_oct (t - 1) for two-bridge links with reduced alternating diagrams."""
    if t < 2:
        raise NotApplicable("two-bridge bounds need at least 2 twists")
    lower = VolumeExpr.v_tet(2 * t) - VolumeExpr.constant(Fraction(27066, 10000))
    upper = VolumeExpr.v_oct(2 * (t - 1))
    return lower, upper


def jones_bounds_expr(abs_a2: int, abs_penultimate: int) -> tuple[VolumeExpr, VolumeExpr]:
    """Jones-coefficient bounds (lower, upper) for prime alternating non-torus
    knots: v_oct max(|a_{m-1}|, |a_{n+1}|-1) <= vol <= 10 v_tet (|a_{n+1}| + |a_{m-1}| - 1)."""
    if abs_a2 < 0 or abs_penultimate < 0:
        raise ValueError("jones_bounds_expr: coefficient magnitudes must be nonnegative")
    lower = VolumeExpr.v_oct(max(abs_penultimate, abs_a2 - 1))
    upper = VolumeExpr.v_tet(10 * (abs_a2 + abs_penultimate - 1))
    return lower, upper


def white_face_expr(t: int, white_census: dict[int, int]) -> VolumeExpr:
    """White-face refinement (4t - 8) v_tet + 2 sum_n n f_n L(pi/n) of the
    augmented-polyhedron bound; rejects a census with a size n < 3, a count
    f_n < 0, or sum n f_n != 6t."""
    if t < 2:
        raise NotApplicable("white-face bound needs at least 2 twists")
    bad = {n: f for n, f in white_census.items() if n < 3 or f < 0}
    if bad:
        raise CensusMismatchError(
            f"white census entries {bad} need face size >= 3 and count >= 0"
        )
    handshake = sum(n * f for n, f in white_census.items())
    if handshake != 6 * t:
        raise CensusMismatchError(
            f"white census sums to {handshake}, expected 6t = {6 * t}"
        )
    total = VolumeExpr.v_tet(4 * t - 8)
    for n, f in sorted(white_census.items()):
        total = total + VolumeExpr.lob(n, 2 * n * f)
    return total


# ---------------------------------------------------------------------------
# Aggregated report
# ---------------------------------------------------------------------------


def link_report(
    d: TwistDecomposition,
    flags: HypothesisFlags = HypothesisFlags(),
    white_census: dict[int, int] | None = None,
    jones_coefficients: tuple[int, int] | None = None,
) -> list[Bound]:
    """Evaluate every bound with truthful applicability gating.

    Returns the catalog in fixed order with the minimum applicable upper and
    maximum applicable lower marked best.  With truthful flags, max lower
    never exceeds min upper.
    """
    s = twist_stats(d)
    reduced_alternating = flags.reduced and flags.alternating
    delta = white_census.get(3, 0) if white_census else None
    tb_ok = flags.two_bridge and reduced_alternating
    rows = [
        bound_row(
            "adams-crossing",
            "upper",
            ("hyperbolic", "not the figure-eight knot"),
            "Adams 1983 crossing-number bound",
            lambda: adams_crossing_expr(s.c),
            applicable=flags.not_figure_eight,
        ),
        bound_row(
            "adams-octahedral",
            "upper",
            ("hyperbolic", "c >= 5"),
            "Adams 2013 octahedral bound (value computed from the exact form)",
            lambda: adams_octahedral_expr(s.c),
        ),
        bound_row(
            "agol-thurston",
            "upper",
            ("hyperbolic",),
            "Agol-Thurston appendix to Lackenby 2004",
            lambda: agol_thurston_expr(s.t),
        ),
        bound_row(
            "dasbach-tsvietkova",
            "upper",
            ("hyperbolic", "reduced diagram (alternating or not)"),
            "Dasbach-Tsvietkova 2015/2019",
            lambda: dasbach_tsvietkova_expr(s),
        ),
        bound_row(
            "adams-twist",
            "upper",
            ("hyperbolic", "reduced alternating", "c >= 5", "t >= 3", "not the Borromean rings"),
            "Adams 2017 twist-length bound",
            lambda: adams_twist_expr(s),
            applicable=reduced_alternating and flags.not_borromean,
        ),
        bound_row(
            "large-twist",
            "upper",
            ("hyperbolic", "t > 8"),
            "augmented-link decomposition bound for t > 8",
            lambda: large_twist_expr(s.t),
        ),
        bound_row(
            "large-twist-refined",
            "upper",
            ("hyperbolic", "t > 8", "white census known"),
            "augmented-link bound refined by the white triangles",
            lambda: large_twist_refined_expr(s.t, delta),
            applicable=delta is not None,
        ),
        bound_row(
            "white-face",
            "upper",
            ("hyperbolic", "white census known"),
            "white-face-census refinement of the augmented-link decomposition",
            lambda: white_face_expr(s.t, white_census),
            applicable=white_census is not None,
        ),
        bound_row(
            "fkp-lower",
            "lower",
            ("hyperbolic", "reduced alternating", "t >= 2", "all twist lengths >= 7"),
            "Futer-Kalfagianni-Purcell lower bound",
            lambda: fkp_lower_expr(s.t, s.min_length),
            applicable=reduced_alternating,
        ),
        bound_row(
            "two-bridge-lower",
            "lower",
            ("hyperbolic", "two-bridge", "reduced alternating"),
            "Gueritaud-Futer two-bridge bounds",
            lambda: two_bridge_bounds_expr(s.t)[0],
            applicable=tb_ok,
        ),
        bound_row(
            "two-bridge-upper",
            "upper",
            ("hyperbolic", "two-bridge", "reduced alternating"),
            "Gueritaud-Futer two-bridge bounds",
            lambda: two_bridge_bounds_expr(s.t)[1],
            applicable=tb_ok,
        ),
    ]
    if jones_coefficients is not None:
        a2, penult = jones_coefficients
        rows += [
            bound_row(
                "jones-lower",
                "lower",
                ("hyperbolic", "prime alternating non-torus knot"),
                "Dasbach-Lin Jones-coefficient bounds",
                lambda: jones_bounds_expr(a2, penult)[0],
            ),
            bound_row(
                "jones-upper",
                "upper",
                ("hyperbolic", "prime alternating non-torus knot"),
                "Dasbach-Lin Jones-coefficient bounds",
                lambda: jones_bounds_expr(a2, penult)[1],
                applicable=a2 + penult - 1 > 0,
            ),
        ]
    return mark_best(rows)
