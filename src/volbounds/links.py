"""Upper and lower volume bounds for hyperbolic link complements.

All bounds take the twist decomposition of a diagram (and, for some, extra
data: Jones coefficients, the white face census of the augmented polyhedron).
Diagram-level hypotheses that a decomposition cannot decide (reduced,
alternating, two-bridge, named-link exclusions) enter as caller flags, all
off by default.  Two printed hypotheses are not gated yet (ROADMAP item 3):
"hyperbolic", on every row, and "prime alternating non-torus knot", on the
Jones rows.  A row that prints them assumes them.

Each hypothesis is checked in one place.  A ``*_expr`` function raises
:class:`NotApplicable`, with a message, when a hypothesis on its own numeric
arguments fails (e.g. ``t > 8``); it takes no flags.  Every other gated
hypothesis is the text a row prints: :func:`link_report` collects the texts
its flags and optional data fail, and :func:`~volbounds.lobachevsky.report`
marks inapplicable each row that prints one of them.

Bounds are assembled as exact rational combinations of the transcendental
constants (see :class:`VolumeExpr`); the report converts each to a float in
:func:`~volbounds.lobachevsky.report`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .lobachevsky import (
    Bound, NotApplicable, VolumeExpr, face_sum_expr, irp_triangle_expr, mark_best, report
)
from .twists import (
    TwistDecomposition, TwistStats, twist_stats, two_bridge_lengths, two_bridge_white_census
)

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
    "two_bridge_inputs",
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
    the figure-eight (an exclusion the report gates).

    Refused below 5 crossings, where the bound would be 0 or negative: a
    diagram with c <= 4 crossings shows a link of crossing number at most 4,
    and the only hyperbolic one is the figure-eight knot (by the knot and
    link tables; the others are the unknot and unlinks, the torus links 3_1,
    2^2_1 and 4^2_1, and split or composite links of these).  So the row's
    printed hypotheses already exclude every such input."""
    if c < 5:
        raise NotApplicable(
            "crossing bound needs at least 5 crossings: "
            "the figure-eight knot is the only hyperbolic link with c <= 4"
        )
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
    """Select the subtraction constant, first matching case in printed order:
    the first k in 2..5 with g_k = 0, else g5 >= 1.  A case's t_(k-1) >= 1
    needs no check, since the case before it failing gives g_(k-1) >= 1."""
    for k, case in enumerate(_ADAMS_A_CASES[:4], start=2):
        if s.at_least(k) == 0:
            return case
    return _ADAMS_A_CASES[4]


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
    than eight twists: :func:`large_twist_refined_expr` at delta = 1, twice
    the triangle bound of an augmented polyhedron P with 2t + 1 triangles.

    So the row assumes P has at least 2t + 1 triangles (a white triangle, where
    the refined row is no weaker); whether it holds at delta = 0 is open
    (ROADMAP item 18).
    """
    return large_twist_refined_expr(t, 1)


def large_twist_refined_expr(t: int, delta: int) -> VolumeExpr:
    """Refinement 10 v_tet (t - 1.3 - delta/10) when the augmented polyhedron
    P has 2t + delta triangles: twice :func:`irp_triangle_expr` on P, whose
    V = 3t > 24 selects the 13/4 shift (vol of the augmented link = 2 vol P)."""
    if t <= 8:
        raise NotApplicable("large-twist bound needs t > 8")
    if delta < 0:
        raise ValueError("large_twist_refined_expr: delta must be nonnegative")
    return 2 * irp_triangle_expr(3 * t, 2 * t + delta)


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
    """Dasbach-Lin bounds (lower, upper) for prime alternating non-torus knots:
    v_oct (max(|a_{n+1}|, |a_{m-1}|) - 1) <= vol <= 10 v_tet (|a_{n+1}| + |a_{m-1}| - 1).

    The sum |a_{n+1}| + |a_{m-1}| is the knot's twist number, at least 2 in
    that class; below 2 the pair raises :class:`NotApplicable`."""
    if abs_a2 < 0 or abs_penultimate < 0:
        raise ValueError("jones_bounds_expr: coefficient magnitudes must be nonnegative")
    if abs_a2 + abs_penultimate < 2:
        raise NotApplicable("Jones bounds need |a_{n+1}| + |a_{m-1}| >= 2")
    lower = VolumeExpr.v_oct(max(abs_a2, abs_penultimate) - 1)
    upper = VolumeExpr.v_tet(10 * (abs_a2 + abs_penultimate - 1))
    return lower, upper


def _check_white_census(t: int, white_census: dict[int, int]) -> None:
    """Raise :class:`CensusMismatchError` unless every size n >= 3, every
    count f_n >= 0 and sum n f_n = 6t."""
    bad = {n: f for n, f in white_census.items() if n < 3 or f < 0}
    if bad:
        raise CensusMismatchError(f"white census entries {bad} need face size >= 3 and count >= 0")
    handshake = sum(n * f for n, f in white_census.items())
    if handshake != 6 * t:
        raise CensusMismatchError(f"white census sums to {handshake}, expected 6t = {6 * t}")


def white_face_expr(t: int, white_census: dict[int, int]) -> VolumeExpr:
    """White-face refinement (4t - 8) v_tet + 2 sum_n n f_n L(pi/n) of the
    augmented-polyhedron bound; rejects a census with a size n < 3, a count
    f_n < 0, or sum n f_n != 6t.  It is twice the face-census bound of the
    augmented polyhedron P, whose 2t dark triangles give 2t v_tet."""
    if t < 2:
        raise NotApplicable("white-face bound needs at least 2 twists")
    _check_white_census(t, white_census)
    return VolumeExpr.v_tet(4 * t - 8) + 2 * face_sum_expr(white_census)


# ---------------------------------------------------------------------------
# Aggregated report
# ---------------------------------------------------------------------------


# Every row of the report: name, kind, printed hypotheses, citation, and its
# exact form from (twist stats, white census, Jones pair).
_ROWS = (
    ("adams-crossing", "upper", ("hyperbolic", "not the figure-eight knot"),
     "Adams 1983 crossing-number bound",
     lambda s, w, j: adams_crossing_expr(s.c)),
    ("adams-octahedral", "upper", ("hyperbolic", "c >= 5"),
     "Adams 2013 octahedral bound (value computed from the exact form)",
     lambda s, w, j: adams_octahedral_expr(s.c)),
    ("agol-thurston", "upper", ("hyperbolic",),
     "Agol-Thurston appendix to Lackenby 2004",
     lambda s, w, j: agol_thurston_expr(s.t)),
    ("dasbach-tsvietkova", "upper", ("hyperbolic", "reduced diagram (alternating or not)"),
     "Dasbach-Tsvietkova 2015/2019",
     lambda s, w, j: dasbach_tsvietkova_expr(s)),
    ("adams-twist", "upper",
     ("hyperbolic", "reduced alternating", "c >= 5", "t >= 3", "not the Borromean rings"),
     "Adams 2017 twist-length bound",
     lambda s, w, j: adams_twist_expr(s)),
    ("large-twist", "upper", ("hyperbolic", "t > 8"),
     "augmented-link decomposition bound for t > 8",
     lambda s, w, j: large_twist_expr(s.t)),
    ("large-twist-refined", "upper", ("hyperbolic", "t > 8", "white census known"),
     "augmented-link bound refined by the white triangles",
     lambda s, w, j: large_twist_refined_expr(s.t, w.get(3, 0))),
    ("white-face", "upper", ("hyperbolic", "white census known"),
     "white-face-census refinement of the augmented-link decomposition",
     lambda s, w, j: white_face_expr(s.t, w)),
    ("fkp-lower", "lower",
     ("hyperbolic", "reduced alternating", "t >= 2", "all twist lengths >= 7"),
     "Futer-Kalfagianni-Purcell lower bound",
     lambda s, w, j: fkp_lower_expr(s.t, s.min_length)),
    ("two-bridge-lower", "lower", ("hyperbolic", "two-bridge", "reduced alternating"),
     "Gueritaud-Futer two-bridge bounds",
     lambda s, w, j: two_bridge_bounds_expr(s.t)[0]),
    ("two-bridge-upper", "upper", ("hyperbolic", "two-bridge", "reduced alternating"),
     "Gueritaud-Futer two-bridge bounds",
     lambda s, w, j: two_bridge_bounds_expr(s.t)[1]),
)
# ... followed, when Jones coefficients are given, by the two Jones rows
_ROWS_WITH_JONES = _ROWS + (
    ("jones-lower", "lower", ("hyperbolic", "prime alternating non-torus knot"),
     "Dasbach-Lin Jones-coefficient bounds",
     lambda s, w, j: jones_bounds_expr(*j)[0]),
    ("jones-upper", "upper", ("hyperbolic", "prime alternating non-torus knot"),
     "Dasbach-Lin Jones-coefficient bounds",
     lambda s, w, j: jones_bounds_expr(*j)[1]),
)


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
    if white_census is not None:
        _check_white_census(s.t, white_census)
    holds = (
        ("reduced diagram (alternating or not)", flags.reduced),
        ("reduced alternating", flags.reduced and flags.alternating),
        ("two-bridge", flags.two_bridge),
        ("not the figure-eight knot", flags.not_figure_eight),
        ("not the Borromean rings", flags.not_borromean),
        ("white census known", white_census is not None),
    )
    unmet = {text for text, held in holds if not held}
    table = _ROWS if jones_coefficients is None else _ROWS_WITH_JONES
    return mark_best(report(table, unmet, s, white_census, jones_coefficients))


def two_bridge_inputs(p: int, q: int) -> tuple[TwistDecomposition, HypothesisFlags, dict[int, int]]:
    """The :func:`link_report` arguments for b(p/q), all fixed by its Conway
    normal form: ``link two-bridge`` prints ``link_report(*two_bridge_inputs(p, q))``.

    Lengths as :func:`~volbounds.twists.two_bridge_lengths` (the mirror's for
    2q > p; torus links refused).  The form is a reduced alternating two-bridge
    diagram, never the Borromean rings, and is the figure-eight knot exactly for
    b(5/2) and b(5/3).  P's white census is ``two_bridge_white_census(t)``: no P."""
    lengths = two_bridge_lengths(p, q)
    flags = HypothesisFlags(
        reduced=True, alternating=True, two_bridge=True, not_figure_eight=p != 5, not_borromean=True
    )
    return TwistDecomposition(lengths), flags, two_bridge_white_census(len(lengths))
