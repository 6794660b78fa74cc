"""Volume bounds for generalized hyperbolic polyhedra from their 1-skeletons.

The supremum of volumes over all generalized hyperbolic polyhedra sharing a
3-connected planar 1-skeleton equals the volume of the ideal right-angled
polyhedron whose skeleton is the medial graph (rectification).  The bounds
here combine the classical vertex-count bounds for ideal right-angled
polyhedra with face-census refinements, and re-express them in terms of the
edge count of the original skeleton.

Each :class:`Bound` lists its hypotheses (non-obtuse, ideal-right-angled,
...) as ``hypotheses`` strings, and those strings are its gate:
:func:`~volbounds.lobachevsky.report` marks a row inapplicable when it prints
a hypothesis its inputs fail.  The skeleton decides "vertex degrees in
{3,4}"; the report refuses any skeleton that
:func:`~volbounds.maps.is_three_connected` refuses.  "non-obtuse" is a
geometric hypothesis the skeleton cannot show, so it is the caller's
assertion, off by default, and ``atkinson-mixed`` applies only under it:
Atkinson's bound covers the non-obtuse polyhedra with the skeleton, while
the other rows bound the supremum over all generalized polyhedra with it,
which can be larger.
"""

from __future__ import annotations

from fractions import Fraction

from .lobachevsky import (
    Bound, VolumeExpr, face_sum_expr, irp_triangle_expr, mark_best, report
)
from .maps import (
    CombinatorialMap,
    SkeletonCensus,
    is_three_connected,
    medial_census,
)

__all__ = [
    "atkinson_mixed_expr",
    "irp_bounds_expr",
    "face_census_expr",
    "face_census_log_expr",
    "irp_triangle_expr",
    "triangle_trivalent_expr",
    "prism_atkinson_expr",
    "rectification_bounds",
]


def atkinson_mixed_expr(v3: int, v4: int) -> VolumeExpr:
    """Atkinson's upper bound for non-obtuse polyhedra with only 3- and
    4-valent vertices: ((2V4+3V3-2)/4) v_oct + ((15V3+20V4)/16) v_tet."""
    if v3 < 0 or v4 < 0:
        raise ValueError("atkinson_mixed_expr: vertex counts must be nonnegative")
    if v3 + v4 < 4:
        raise ValueError("atkinson_mixed_expr: a polyhedron needs at least 4 vertices")
    return VolumeExpr.v_oct(Fraction(2 * v4 + 3 * v3 - 2, 4)) + VolumeExpr.v_tet(
        Fraction(15 * v3 + 20 * v4, 16)
    )


def irp_bounds_expr(v: int) -> tuple[VolumeExpr, VolumeExpr]:
    """Two-sided vertex-count bounds (lower, upper) for ideal right-angled
    polyhedra.

    Lower (voct/4)V - voct/2 always; upper (voct/2)V - c with c = 2 for
    V <= 8 (sharp on the octahedron at V=6), c = 5/2 for 9 <= V <= 24,
    c = 3 for V > 24.
    """
    if v < 6:
        raise ValueError(
            "irp_bounds_expr: an ideal right-angled polyhedron has at least 6 vertices"
        )
    lower = VolumeExpr.v_oct(Fraction(v, 4) - Fraction(1, 2))
    # The 5/2 refinement cannot start at V=8: the square antiprism (V=8) has
    # volume 6.0230 > 3/2 v_oct.  It holds from V=9 on.
    if v > 24:
        cut = Fraction(3)
    elif v >= 9:
        cut = Fraction(5, 2)
    else:
        cut = Fraction(2)
    upper = VolumeExpr.v_oct(Fraction(v, 2) - cut)
    return lower, upper


def _require_irp_census(census: SkeletonCensus) -> None:
    if not census.is_four_regular():
        raise ValueError("face-census bounds require a 4-regular (ideal right-angled) census")


def face_census_expr(census: SkeletonCensus) -> VolumeExpr:
    """Bipyramid-decomposition bound sum_n L(pi/n) p_n n - 4 v_tet for an
    ideal right-angled polyhedron with face census p_n."""
    _require_irp_census(census)
    return VolumeExpr.v_tet(-4) + face_sum_expr(census.face_counts)


def face_census_log_expr(census: SkeletonCensus) -> VolumeExpr:
    """Logarithmic form pi * sum_n log(n/2) p_n - 4 v_tet of the face-census bound."""
    _require_irp_census(census)
    logs = VolumeExpr({("pilog", n): count for n, count in census.face_counts.items()})
    return VolumeExpr.v_tet(-4) + logs


def triangle_trivalent_expr(e: int, v3: int, p3: int) -> VolumeExpr:
    """Edge-count bound refined by triangular faces and trivalent vertices:
    2 v_tet (E - (p3+V3+8)/4).  At V3 = 2E/3 (every vertex trivalent) it is
    the all-trivalent form (5 v_tet/3)(E - (3 p3 + 24)/10)."""
    if e < 6:
        raise ValueError("triangle_trivalent_expr: a polyhedron has at least 6 edges")
    if v3 < 0 or p3 < 0:
        raise ValueError("triangle_trivalent_expr: counts must be nonnegative")
    if 3 * v3 > 2 * e or 3 * p3 > 2 * e:
        raise ValueError("triangle_trivalent_expr: counts inconsistent with the edge count")
    return VolumeExpr.v_tet(2 * (e - Fraction(p3 + v3 + 8, 4)))


def prism_atkinson_expr(n: int) -> VolumeExpr:
    """Atkinson's prism bound (3/2) v_oct n - 2 v_oct."""
    if n < 3:
        raise ValueError("prism_atkinson_expr: need n >= 3")
    return VolumeExpr.v_oct(Fraction(3, 2) * n - 2)


_IRP_HYP = ("ideal-right-angled medial (rectification)",)
_NON_OBTUSE = "non-obtuse"
_DEGREES_34 = "vertex degrees in {3,4}"

# Every row of the report: name, kind, printed hypotheses, citation, and its
# exact form from (skeleton census, medial census, irp_bounds_expr of the medial).
# edge-bound, the edge-count bound irp_bounds_expr(E)[1], is read off the one irp
# the report computes: the medial has V = E vertices.
_ROWS = (
    ("atkinson-mixed", "upper", (_NON_OBTUSE, _DEGREES_34),
     "Atkinson 2011 (non-obtuse polyhedra with 3- and 4-valent vertices)",
     lambda c, mc, irp: atkinson_mixed_expr(c.v3, c.v4)),
    ("edge-bound", "upper", ("3-connected skeleton",),
     "vertex-count bounds for ideal right-angled polyhedra applied to the medial",
     lambda c, mc, irp: irp[1]),
    ("triangle-trivalent", "upper", ("3-connected skeleton",),
     "face-census refinement of the edge-count bound",
     lambda c, mc, irp: triangle_trivalent_expr(c.E, c.v3, c.p3)),
    ("medial-vertex-count", "upper", _IRP_HYP,
     "Atkinson 2009 vertex-count bounds (with V>=8 and V>24 refinements)",
     lambda c, mc, irp: irp[1]),
    ("medial-face-census", "upper", _IRP_HYP,
     "bipyramid-decomposition face-census bound",
     lambda c, mc, irp: face_census_expr(mc)),
    ("medial-face-census-log", "upper", _IRP_HYP,
     "logarithmic bipyramid bound",
     lambda c, mc, irp: face_census_log_expr(mc)),
    ("medial-triangle-count", "upper", _IRP_HYP,
     "triangle-aware vertex-count bound",
     lambda c, mc, irp: irp_triangle_expr(mc.V, mc.p3)),
    ("medial-vertex-count-lower", "lower",
     _IRP_HYP + ("lower bound for the rectification volume, i.e. for sup vol",),
     "Atkinson 2009 lower bound",
     lambda c, mc, irp: irp[0]),
)


def rectification_bounds(m: CombinatorialMap, non_obtuse: bool = False) -> list[Bound]:
    """Every applicable bound for the polyhedra with 1-skeleton ``m``.

    Bounds on the medial's ideal right-angled polyhedron bound the supremum
    over all generalized hyperbolic polyhedra with this skeleton; the
    edge/triangle bounds apply to the skeleton directly.  ``non_obtuse`` is
    the caller's assertion that the polyhedra in question are non-obtuse;
    without it ``atkinson-mixed`` is not applicable.  The minimum upper
    bound is marked best, as is the (single) lower bound.  A map that is
    not 3-connected raises ``ValueError``.
    """
    if not is_three_connected(m):
        raise ValueError("rectification_bounds: skeleton must be 3-connected")
    census = m.census
    med_census = medial_census(census)
    unmet = set() if non_obtuse else {_NON_OBTUSE}
    if not census.degree_counts.keys() <= {3, 4}:
        unmet.add(_DEGREES_34)
    irp = irp_bounds_expr(med_census.V)
    return mark_best(report(_ROWS, unmet, census, med_census, irp))
